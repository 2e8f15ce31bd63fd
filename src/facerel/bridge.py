"""The bridging descriptor: a three-level facial-shape hierarchy with
mean-HOG templates, and the distance vector it induces for any face.

Every face carries the same ten landmarks, ``POINT_NAMES``: the alignment
step fixes that layout, so it is a constant, not a setting.  Every face's HOG
follows the one recipe of the ``hog`` module constants, the same at build
time and at query time.  A bank file records the layout and the recipe only
so that ``load_bank`` can refuse a bank made with another.
Level one clusters whole-face landmark vectors; within each of those nodes,
level two clusters the ``UPPER`` and ``LOWER`` face landmark sub-vectors
separately.  Every node keeps the mean HOG vector of its member faces as a
template.  A face's descriptor ``h`` lists its L2 distance to every template
in fixed order: the top nodes, then all upper children, then all lower
children.  Slots for children that were pruned at build time (a top node with
too few members) carry a sentinel distance, the largest exact face-to-template
distance over the build corpus.

Landmarks only form the clusters at build time; no query reads them, so the
tree keeps none.  It keeps the templates as one matrix in descriptor order
and, per top node, the number of upper and lower children kept, which fix
the descriptor slot of each row.  A bank file holds exactly that: the arrays
``templates``, ``h_mean`` and ``h_std``, with the cluster counts, per-node
child counts, HOG recipe, landmark layout and sentinel in its metadata,
and ``load_bank`` refuses a file that holds any other array or field.
``descriptors`` measures a stack of HOGs against the matrix.  The build (for
the corpus statistics and the sentinel) and every query take that one path,
each face's HOG computed once, so a face's descriptor has the same bits at
build time and at query time.

A built tree keeps those build descriptors, so a query for one of its own
build faces is a lookup.  ``build_rows`` maps each build face's key, the
SHA-256 of its shape and of its float64 C-order pixels (the face as HOG
reads it), to that face's raw descriptor row.  A hit returns a copy of the
row, the same bits the computation gives; a face that differs in one pixel,
or only in its shape, misses and is computed.  At the ``paper48`` geometry
(48x48 faces, 210 slots, one BLAS thread of a 2-core Xeon VM) a hit took
about 20 µs against about 580 µs for a miss, and keying the 1200 build faces
added about 24 ms to a 0.7 s build.  The rows hold for the tree as built.  A
tree from ``load_bank`` or built by hand keeps no rows, and the bank file
does not store them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from .hog import BINS, BLOCK, CELL, EPS, compute_hog, compute_hog_batch
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

#: The layout and the HOG recipe as every bank file records them.
_LAYOUT_META = {"point_names": list(POINT_NAMES), "upper": list(UPPER), "lower": list(LOWER)}
_HOG_META = {"cell": CELL, "block": BLOCK, "bins": BINS, "eps": EPS}
#: The ``ClusterTree`` fields a bank file stores: scalars and counts in its
#: metadata, next to the fixed layout and recipe, and arrays as arrays.
_BANK_FIELDS = ("t_top", "u_max", "l_max", "upper_counts", "lower_counts", "sentinel")
_BANK_ARRAYS = ("templates", "h_mean", "h_std")


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
class ClusterTree:
    """The hierarchy as a descriptor reads it; construction checks every field.

    ``templates`` holds every real template as one (S, hog dim) matrix in
    descriptor order: the T top nodes, then the upper children of each top
    node in turn, then the lower children.  ``upper_counts`` and
    ``lower_counts`` give the children kept by each top node, 1 to ``u_max``
    or ``l_max``; together they fix S and ``slots``, the descriptor slot of
    each row.  Slots of pruned children hold no row.  ``build_rows`` is
    filled only by ``build_cluster_tree``.
    """

    t_top: int
    u_max: int
    l_max: int
    templates: np.ndarray            # (S, hog dim)
    upper_counts: tuple[int, ...]    # upper children kept, one per top node
    lower_counts: tuple[int, ...]
    sentinel: float                  # fills slots of pruned children
    h_mean: np.ndarray               # standardization stats over the build corpus
    h_std: np.ndarray
    slots: np.ndarray = field(init=False, repr=False)
    # face key -> read-only raw descriptor of that build face
    build_rows: dict[bytes, np.ndarray] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        for name in ("t_top", "u_max", "l_max"):
            _check_count(name, getattr(self, name))
        t = self.t_top
        for name, most in (("upper_counts", self.u_max), ("lower_counts", self.l_max)):
            counts = getattr(self, name)
            if not isinstance(counts, (list, tuple)) or len(counts) != t:
                raise ValueError(f"{name} must list {t} counts, one per top node, got {counts!r}")
            for k, c in enumerate(counts):
                _check_count(f"{name}[{k}]", c, most)
            setattr(self, name, tuple(counts))
        # the rows are checked before any slot exists, so no count can ask
        # for more slots than the matrix has rows
        rows = t + sum(self.upper_counts + self.lower_counts)
        if np.ndim(self.templates) != 2 or len(self.templates) != rows:
            raise ValueError(
                f"templates has shape {np.shape(self.templates)}, expected {rows} rows"
            )
        _check_finite("templates", self.templates)
        per_block = BLOCK ** 2 * BINS
        if self.hog_dim == 0 or self.hog_dim % per_block:
            raise ValueError(
                f"the HOG recipe cannot give {self.hog_dim}-wide templates: the width is not "
                f"a positive multiple of block² · bins = {per_block}"
            )
        if isinstance(self.sentinel, bool) or not isinstance(self.sentinel, (int, float)):
            raise ValueError(f"sentinel must be a number, got {self.sentinel!r}")
        self.sentinel = float(self.sentinel)
        for name in ("h_mean", "h_std"):
            if np.shape(getattr(self, name)) != (self.descriptor_length,):
                raise ValueError(
                    f"{name} has shape {np.shape(getattr(self, name))}, "
                    f"expected ({self.descriptor_length},) for the descriptor length"
                )
            _check_finite(name, getattr(self, name))
        if np.any(self.h_std < 0):
            raise ValueError("h_std holds negative values")
        slots = [np.arange(t)]
        for first, most, counts in ((t, self.u_max, self.upper_counts),
                                    (t * (1 + self.u_max), self.l_max, self.lower_counts)):
            slots += [first + k * most + np.arange(c) for k, c in enumerate(counts)]
        self.slots = np.concatenate(slots)

    @property
    def descriptor_length(self) -> int:
        return self.t_top + self.t_top * self.u_max + self.t_top * self.l_max

    @property
    def hog_dim(self) -> int:
        return self.templates.shape[1]

    def pruned_nodes(self) -> list[tuple[int, str, int]]:
        """(top index, region, kept children) for every reduced node."""
        out = []
        for t in range(self.t_top):
            if self.upper_counts[t] < self.u_max:
                out.append((t, "upper", self.upper_counts[t]))
            if self.lower_counts[t] < self.l_max:
                out.append((t, "lower", self.lower_counts[t]))
        return out


def _check_count(name: str, v, most: int | None = None) -> None:
    """``v`` must be an int (not a bool) of at least 1 and, unless None, at most ``most``."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"cluster count {name!r} must be an int, got {v!r}")
    if v < 1 or (most is not None and v > most):
        expected = ">= 1" if most is None else f"from 1 to {most}"
        raise ValueError(f"cluster count {name!r} is {v}, expected {expected}")


def _check_finite(name: str, a: np.ndarray) -> None:
    if not np.isfinite(a).all():
        raise ValueError(f"{name} holds non-finite values")


def _face_key(image) -> bytes:
    """SHA-256 of a face's shape, then of its pixels as HOG reads them."""
    img = np.asarray(image, dtype=np.float64, order="C")
    key = hashlib.sha256(str(img.shape).encode())
    key.update(img)
    return key.digest()


def _flat(points: np.ndarray) -> np.ndarray:
    return points.reshape(points.shape[0], -1)


def _mean_hogs(hogs: np.ndarray, clusters) -> np.ndarray:
    """The mean HOG of each cluster, given as an index into ``hogs``."""
    return np.stack([hogs[c].mean(axis=0) for c in clusters])


def _cluster_templates(landmarks, hogs, t_top, u_children, l_children, seed):
    """Cluster the faces by their landmarks; return the templates stacked in
    descriptor order and each top node's upper and lower child counts."""
    top = kmeans(_flat(landmarks), t_top, seed)
    top_rows = _mean_hogs(hogs, [top.assignments == t for t in range(t_top)])
    upper: list[np.ndarray] = []   # each top node's child templates
    lower: list[np.ndarray] = []
    for t in range(t_top):
        members = np.where(top.assignments == t)[0]
        for want, blocks, axis, idx in (
            (u_children, upper, 0, UPPER),
            (l_children, lower, 1, LOWER),
        ):
            pts = _flat(landmarks[members][:, list(idx), :])
            sub = kmeans(pts, min(want, len(members)), seed=[seed, t, axis])
            k = len(sub.centroids)
            blocks.append(_mean_hogs(hogs, [members[sub.assignments == c] for c in range(k)]))
    return (
        np.concatenate([top_rows, *upper, *lower]),
        tuple(len(b) for b in upper),
        tuple(len(b) for b in lower),
    )


def build_cluster_tree(
    corpus,
    t_top: int = 10,
    u_children: int = 10,
    l_children: int = 10,
    seed: int = 0,
) -> ClusterTree:
    """Build the hierarchy from ``corpus``: a sequence of (landmarks, image).

    Top-level K-means runs on the full box-normalized landmark vectors; each
    top node is then split on the upper-region and lower-region sub-vectors
    separately.  A top node with fewer members than the requested child count
    keeps one child per member instead.  The tree keeps each cluster's mean
    HOG and the number of children of each top node; the landmark centroids
    only assign members and are dropped.
    """
    for name, v in (("t_top", t_top), ("u_children", u_children), ("l_children", l_children)):
        _check_count(name, v)
    n = len(corpus)
    if n < t_top * max(u_children, l_children):
        raise ValueError(
            f"corpus of {n} faces is too small for T={t_top}, "
            f"U={u_children}, L={l_children}"
        )

    landmarks = np.empty((n, len(POINT_NAMES), 2))
    for k, (lm, _) in enumerate(corpus):
        try:
            landmarks[k] = check_landmarks(lm)
        except ValueError as e:
            raise ValueError(f"corpus face {k}: {e}") from None
    hogs = compute_hog_batch([img for _, img in corpus])

    # the blocks the matrix is stacked from die with the helper's frame, so
    # the rest of the build holds one copy of the templates
    templates, upper_counts, lower_counts = _cluster_templates(
        landmarks, hogs, t_top, u_children, l_children, seed
    )
    length = t_top * (1 + u_children + l_children)
    tree = ClusterTree(
        t_top=t_top,
        u_max=u_children,
        l_max=l_children,
        templates=templates,
        upper_counts=upper_counts,
        lower_counts=lower_counts,
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
    corpus_h.setflags(write=False)
    tree.build_rows = {_face_key(img): row for (_, img), row in zip(corpus, corpus_h)}
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

    This is the floor for exact distances: about 320–360 µs a query against
    the 210-template ``paper48`` bank on one BLAS thread.  Blocks of 8, 18,
    36, 105 and 210 rows, and a buffer kept across calls, were no faster
    than the 72 rows ``DISTANCE_BLOCK_BYTES`` gives.  The GEMV expansion
    ``|t|² - 2 t·h + |h|²`` runs in about 43 µs, but it changes the bits and
    loses the exact zero distance of a template's own face.
    """
    hogs = np.asarray(hogs, dtype=np.float64)
    if hogs.ndim != 2:
        raise ValueError(f"expected an (N, {tree.hog_dim}) stack of HOGs, got shape {hogs.shape}")
    if hogs.shape[1] != tree.hog_dim:
        raise ValueError(
            f"HOG dimensionality {hogs.shape[-1]} does not match the bank's "
            f"templates ({tree.hog_dim}); check the image geometry"
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
    """Raw distance vector ``h`` for one face image, fixed node order.

    A build face of ``tree`` is looked up in ``tree.build_rows``.
    """
    if tree.build_rows:
        row = tree.build_rows.get(_face_key(image))
        if row is not None:
            return row.copy()
    return descriptors(compute_hog(image)[None], tree)[0]


def standardize_descriptor(h: np.ndarray, tree: ClusterTree) -> np.ndarray:
    """Center and scale ``h`` by the build-corpus statistics.

    Entries that were constant over the corpus (for instance sentinel slots)
    standardize to zero.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.shape[-1:] != (tree.descriptor_length,):
        raise ValueError(
            f"descriptor of shape {h.shape} does not end in the bank's descriptor "
            f"length {tree.descriptor_length}"
        )
    return (h - tree.h_mean) / np.maximum(tree.h_std, 1e-12)


def network_descriptor(image: np.ndarray, tree: ClusterTree) -> np.ndarray:
    """Standardized descriptor, ready to concatenate into the first FC layer."""
    return standardize_descriptor(extract_descriptor(image, tree), tree)


def save_bank(path, tree: ClusterTree) -> None:
    meta = {name: getattr(tree, name) for name in _BANK_FIELDS}
    meta.update(hog=_HOG_META, schema=_LAYOUT_META)
    arrays = {name: getattr(tree, name) for name in _BANK_ARRAYS}
    save_container(path, "bridge-bank", meta, arrays)


def load_bank(path) -> ClusterTree:
    """Read a bank back; a missing, unknown or malformed field raises
    ``ValueError`` naming it."""
    kind, meta, arrays = load_container(path)
    if kind != "bridge-bank":
        raise ValueError(f"{path}: container holds {kind!r}, not a bridge bank")
    for what, found, known in (("metadata field", meta, _BANK_FIELDS + ("schema", "hog")),
                               ("array", arrays, _BANK_ARRAYS)):
        for name in known:
            if name not in found:
                raise ValueError(f"{path}: bridge bank has no {what} {name!r}")
        unknown = sorted(set(found) - set(known))
        if unknown:
            raise ValueError(f"{path}: unknown bridge bank {what} {unknown[0]!r}")
    for name, fixed, what in (("schema", _LAYOUT_META, "landmark layout"),
                              ("hog", _HOG_META, "HOG recipe")):
        # as JSON text, so a value of another type (8.0 for 8, true for 1)
        # differs too
        if json.dumps(meta[name], sort_keys=True) != json.dumps(fixed, sort_keys=True):
            raise ValueError(f"{path}: bridge bank field {name!r} is not the fixed {what}")
    try:
        return ClusterTree(**{name: meta[name] for name in _BANK_FIELDS}, **arrays)
    except ValueError as e:  # the tree's own field checks
        raise ValueError(f"{path}: {e}") from None
