"""The bridging descriptor: a three-level facial-shape hierarchy with
mean-HOG templates, and the distance vector it induces for any face.

Every face carries the same ten landmarks, ``POINT_NAMES``: the alignment
step fixes that layout, so it is a constant, not a setting, and a bank file
records it only so that ``load_bank`` can refuse a bank built on another.
Level one clusters whole-face landmark vectors; within each of those nodes,
level two clusters the ``UPPER`` and ``LOWER`` face landmark sub-vectors
separately.  Every node keeps the mean HOG vector of its member faces as a
template.  A face's descriptor ``h`` lists its L2 distance to every template
in fixed order: the top nodes, then all upper children, then all lower
children.  Slots for children that were pruned at build time (a top node with
too few members) carry a sentinel distance, the largest exact face-to-template
distance over the build corpus.

The tree stacks every real template into one matrix with the descriptor slot
of each row, and ``descriptors`` measures a stack of HOGs against it.  The
build (for the corpus statistics and the sentinel) and every query take that
one path, each face's HOG computed once, so a face's descriptor has the same
bits at build time and at query time.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hog import HogConfig, compute_hog, compute_hog_batch
from .kmeans import kmeans
from .serialize import load_container, save_container


#: The landmark layout, fixed by the alignment step: ten box-normalized
#: points, brows, eyes and nose bridge in the upper face, nose tip, mouth
#: corners, lower lip and chin in the lower face.
POINT_NAMES = (
    "left_brow", "right_brow", "left_eye", "right_eye", "nose_bridge",
    "nose_tip", "mouth_left", "mouth_right", "lower_lip", "chin",
)
UPPER = (0, 1, 2, 3, 4)
LOWER = (5, 6, 7, 8, 9)
assert sorted(UPPER + LOWER) == list(range(len(POINT_NAMES)))

#: The layout as every bank file records it.
_LAYOUT_META = {"point_names": list(POINT_NAMES), "upper": list(UPPER), "lower": list(LOWER)}


def check_landmarks(points: np.ndarray) -> np.ndarray:
    points = np.asarray(points, dtype=np.float64)
    if points.shape != (len(POINT_NAMES), 2):
        raise ValueError(
            f"landmarks must have shape ({len(POINT_NAMES)}, 2), got {points.shape}"
        )
    if not np.isfinite(points).all():
        raise ValueError("landmark coordinates must be finite")
    if np.any(points < 0.0) or np.any(points > 1.0):
        raise ValueError("landmark coordinates must be box-normalized to [0, 1]")
    return points


@dataclass
class ChildGroup:
    """Second-level clusters of one top node, for one face region."""

    centroids: np.ndarray   # (m, 2 * region size)
    templates: np.ndarray   # (m, hog dim)

    @property
    def count(self) -> int:
        return self.centroids.shape[0]


@dataclass
class ClusterTree:
    """The hierarchy; construction checks its shapes and stacks its templates.

    ``templates`` holds every real template as one (S, hog dim) matrix, in
    descriptor order, and ``slots`` the descriptor slot of each row; the
    per-node template arrays are views of its rows.  Slots of pruned children
    hold no row.
    """

    t_top: int
    u_max: int
    l_max: int
    hog_cfg: HogConfig
    top_centroids: np.ndarray      # (T, 2 * len(POINT_NAMES))
    top_templates: np.ndarray      # (T, hog dim)
    upper: list[ChildGroup]        # one per top node
    lower: list[ChildGroup]
    sentinel: float                # fills slots of pruned children
    h_mean: np.ndarray             # standardization stats over the build corpus
    h_std: np.ndarray
    templates: np.ndarray = field(init=False, repr=False)
    slots: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if min(self.t_top, self.u_max, self.l_max) < 1:
            raise ValueError("cluster counts must all be >= 1")
        t = self.t_top
        _check_rows("top_centroids", self.top_centroids, t, t, 2 * len(POINT_NAMES))
        _check_rows("top_templates", self.top_templates, t, t, None)
        dim = self.top_templates.shape[1]
        per_block = self.hog_cfg.block ** 2 * self.hog_cfg.bins
        if dim % per_block:
            raise ValueError(
                f"'hog' (block {self.hog_cfg.block}, {self.hog_cfg.bins} bins) cannot give "
                f"{dim}-wide templates: the width is not a multiple of block² · bins "
                f"= {per_block}"
            )
        blocks, slots = [self.top_templates], [np.arange(t)]
        offset = t
        for region, groups, most, idx in (
            ("upper", self.upper, self.u_max, UPPER),
            ("lower", self.lower, self.l_max, LOWER),
        ):
            if len(groups) != t:
                raise ValueError(f"{len(groups)} {region} child groups for {t} top nodes")
            for k, g in enumerate(groups):
                _check_rows(f"{region}_{k}.centroids", g.centroids, 1, most, 2 * len(idx))
                _check_rows(f"{region}_{k}.templates", g.templates, g.count, g.count, dim)
                blocks.append(g.templates)
                slots.append(offset + k * most + np.arange(g.count))
            offset += t * most
        for name in ("h_mean", "h_std"):
            if np.shape(getattr(self, name)) != (offset,):
                raise ValueError(
                    f"{name} has shape {np.shape(getattr(self, name))}, "
                    f"expected ({offset},) for the descriptor length"
                )
        self.templates = np.concatenate(blocks)
        self.slots = np.concatenate(slots)
        self.top_templates = self.templates[:t]
        row = t
        for g in self.upper + self.lower:
            g.templates = self.templates[row : row + g.count]
            row += g.count

    @property
    def descriptor_length(self) -> int:
        return self.t_top + self.t_top * self.u_max + self.t_top * self.l_max

    @property
    def hog_dim(self) -> int:
        return self.top_templates.shape[1]

    def pruned_nodes(self) -> list[tuple[int, str, int]]:
        """(top index, region, kept children) for every reduced node."""
        out = []
        for t in range(self.t_top):
            if self.upper[t].count < self.u_max:
                out.append((t, "upper", self.upper[t].count))
            if self.lower[t].count < self.l_max:
                out.append((t, "lower", self.lower[t].count))
        return out


def _check_rows(name: str, a: np.ndarray, lo: int, hi: int, width: int | None) -> None:
    """``a`` must be 2-D with ``lo..hi`` rows and, unless None, ``width`` columns."""
    shape = np.shape(a)
    if len(shape) != 2 or not lo <= shape[0] <= hi or width not in (None, shape[1]):
        rows = str(lo) if lo == hi else f"{lo} to {hi}"
        cols = "any" if width is None else str(width)
        raise ValueError(f"{name} has shape {shape}, expected {rows} rows of {cols} columns")


def _flat(points: np.ndarray) -> np.ndarray:
    return points.reshape(points.shape[0], -1)


def build_cluster_tree(
    corpus,
    t_top: int = 10,
    u_children: int = 10,
    l_children: int = 10,
    seed: int = 0,
    hog_cfg: HogConfig | None = None,
) -> ClusterTree:
    """Build the hierarchy from ``corpus``: a sequence of (landmarks, image).

    Top-level K-means runs on the full box-normalized landmark vectors; each
    top node is then split on the upper-region and lower-region sub-vectors
    separately.  A top node with fewer members than the requested child count
    keeps one child per member instead.
    """
    hog_cfg = hog_cfg or HogConfig()
    if t_top < 1 or u_children < 1 or l_children < 1:
        raise ValueError("cluster counts must all be >= 1")
    n = len(corpus)
    if n < t_top * max(u_children, l_children):
        raise ValueError(
            f"corpus of {n} faces is too small for T={t_top}, "
            f"U={u_children}, L={l_children}"
        )

    landmarks = np.stack([check_landmarks(lm) for lm, _ in corpus])
    hogs = compute_hog_batch([img for _, img in corpus], hog_cfg)

    top = kmeans(_flat(landmarks), t_top, seed)
    top_templates = np.stack(
        [hogs[top.assignments == t].mean(axis=0) for t in range(t_top)]
    )

    upper_groups: list[ChildGroup] = []
    lower_groups: list[ChildGroup] = []
    for t in range(t_top):
        members = np.where(top.assignments == t)[0]
        for want, groups, axis, idx in (
            (u_children, upper_groups, 0, UPPER),
            (l_children, lower_groups, 1, LOWER),
        ):
            pts = _flat(landmarks[members][:, list(idx), :])
            k = min(want, len(members))
            sub = kmeans(pts, k, seed=[seed, t, axis])
            templates = np.stack(
                [hogs[members[sub.assignments == c]].mean(axis=0) for c in range(k)]
            )
            groups.append(ChildGroup(sub.centroids, templates))

    length = t_top * (1 + u_children + l_children)
    tree = ClusterTree(
        t_top=t_top,
        u_max=u_children,
        l_max=l_children,
        hog_cfg=hog_cfg,
        top_centroids=top.centroids,
        top_templates=top_templates,
        upper=upper_groups,
        lower=lower_groups,
        sentinel=0.0,  # below every distance until the corpus descriptors exist
        h_mean=np.zeros(length),
        h_std=np.ones(length),
    )
    corpus_h = descriptors(hogs, tree)
    tree.sentinel = float(corpus_h.max())
    pruned = np.ones(length, dtype=bool)
    pruned[tree.slots] = False
    corpus_h[:, pruned] = tree.sentinel
    tree.h_mean = corpus_h.mean(axis=0)
    tree.h_std = corpus_h.std(axis=0)
    # A column constant over the corpus keeps its exact value as its mean, so
    # it standardizes to exactly zero; the mean of N equal values can be off
    # by an ulp.
    constant = np.all(corpus_h == corpus_h[0], axis=0)
    tree.h_mean[constant] = corpus_h[0, constant]
    return tree


#: Bytes of template rows per distance block.  At the default geometry (HOG
#: length 900) that is 72 rows, whose differences stay in cache from the
#: subtract to the row sums; one 210-row block ran 1.4x slower.
DISTANCE_BLOCK_BYTES = 1 << 19


def descriptors(hogs: np.ndarray, tree: ClusterTree) -> np.ndarray:
    """Raw distance vectors ``h`` for an (N, hog dim) stack of HOGs, fixed node order.

    Each distance is ``np.linalg.norm(template - hog)`` done by hand in one
    reused buffer: the same squares, the same sum along one contiguous row,
    the same root.  A face's descriptor thus does not depend on the stack
    around it.
    """
    hogs = np.asarray(hogs, dtype=np.float64)
    if hogs.ndim != 2 or hogs.shape[1] != tree.hog_dim:
        raise ValueError(
            f"HOG dimensionality {hogs.shape[-1]} does not match the bank's "
            f"templates ({tree.hog_dim}); check image geometry and HOG config"
        )
    n_rows = len(tree.templates)
    dist = np.empty((len(hogs), n_rows))
    rows = max(1, DISTANCE_BLOCK_BYTES // tree.templates[0].nbytes)
    diff = np.empty((min(rows, n_rows), tree.hog_dim))
    for lo in range(0, n_rows, rows):
        block = tree.templates[lo : lo + rows]
        d = diff[: len(block)]
        for hog, out in zip(hogs, dist[:, lo : lo + rows]):
            np.subtract(block, hog, out=d)
            d *= d
            np.sqrt(np.add.reduce(d, axis=1), out=out)
    h = np.full((len(hogs), tree.descriptor_length), tree.sentinel)
    h[:, tree.slots] = dist
    return h


def extract_descriptor(image: np.ndarray, tree: ClusterTree) -> np.ndarray:
    """Raw distance vector ``h`` for one face image, fixed node order."""
    return descriptors(compute_hog(image, tree.hog_cfg)[None], tree)[0]


def standardize_descriptor(h: np.ndarray, tree: ClusterTree) -> np.ndarray:
    """Center and scale ``h`` by the build-corpus statistics.

    Entries that were constant over the corpus (for instance sentinel slots)
    standardize to zero.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1] != tree.descriptor_length:
        raise ValueError(
            f"descriptor length {h.shape[-1]} does not match bank length "
            f"{tree.descriptor_length}"
        )
    return (h - tree.h_mean) / np.maximum(tree.h_std, 1e-12)


def network_descriptor(image: np.ndarray, tree: ClusterTree) -> np.ndarray:
    """Standardized descriptor, ready to concatenate into the first FC layer."""
    return standardize_descriptor(extract_descriptor(image, tree), tree)


def save_bank(path, tree: ClusterTree) -> None:
    arrays = {
        "top_centroids": tree.top_centroids,
        "top_templates": tree.top_templates,
        "h_mean": tree.h_mean,
        "h_std": tree.h_std,
    }
    for t in range(tree.t_top):
        arrays[f"upper_{t}.centroids"] = tree.upper[t].centroids
        arrays[f"upper_{t}.templates"] = tree.upper[t].templates
        arrays[f"lower_{t}.centroids"] = tree.lower[t].centroids
        arrays[f"lower_{t}.templates"] = tree.lower[t].templates
    meta = {
        "t_top": tree.t_top,
        "u_max": tree.u_max,
        "l_max": tree.l_max,
        "hog": tree.hog_cfg.to_dict(),
        "schema": _LAYOUT_META,
        "sentinel": tree.sentinel,
    }
    save_container(path, "bridge-bank", meta, arrays)


def load_bank(path) -> ClusterTree:
    """Read a bank back; a missing or misshapen field raises ``ValueError`` naming it."""
    kind, meta, arrays = load_container(path)
    if kind != "bridge-bank":
        raise ValueError(f"{path}: container holds {kind!r}, not a bridge bank")

    def array(name: str) -> np.ndarray:
        if name not in arrays:
            raise ValueError(f"{path}: bridge bank has no array {name!r}")
        return arrays[name]

    def value(name: str, convert):
        if name not in meta:
            raise ValueError(f"{path}: bridge bank metadata has no field {name!r}")
        try:
            return convert(meta[name])
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"{path}: bridge bank field {name!r} is malformed: {e!r}") from None

    if value("schema", dict) != _LAYOUT_META:
        raise ValueError(f"{path}: bridge bank field 'schema' is not the fixed landmark layout")
    t_top = value("t_top", int)
    fields = dict(
        t_top=t_top,
        u_max=value("u_max", int),
        l_max=value("l_max", int),
        hog_cfg=value("hog", HogConfig.from_dict),
        top_centroids=array("top_centroids"),
        top_templates=array("top_templates"),
        sentinel=value("sentinel", float),
        h_mean=array("h_mean"),
        h_std=array("h_std"),
    )
    for region in ("upper", "lower"):
        fields[region] = [
            ChildGroup(array(f"{region}_{t}.centroids"), array(f"{region}_{t}.templates"))
            for t in range(t_top)
        ]
    try:
        return ClusterTree(**fields)
    except ValueError as e:  # the tree's own shape checks
        raise ValueError(f"{path}: {e}") from None
