"""Cluster-tree construction and descriptor extraction."""

import re

import numpy as np
import pytest

from facerel import bridge
from facerel.bridge import (
    build_cluster_tree,
    descriptors,
    extract_descriptor,
    load_bank,
    network_descriptor,
    save_bank,
    standardize_descriptor,
)
from facerel.hog import HogConfig, compute_hog, compute_hog_batch
from facerel.serialize import load_container, save_container

CFG = HogConfig(cell=8, block=2, bins=9, eps=1e-5)

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


def make_corpus(n, n_modes=4, seed=0, jitter=0.01):
    """Faces whose landmarks sit in well-separated planted modes."""
    rng = np.random.default_rng(seed)
    corpus = []
    modes = []
    for i in range(n):
        m = int(rng.integers(n_modes))
        shift = np.array([0.4 * (m / max(n_modes - 1, 1)) - 0.2, 0.05 * (m % 2)])
        pts = np.clip(BASE_POINTS + shift + rng.normal(scale=jitter, size=(10, 2)), 0, 1)
        img = rng.random((32, 32)) * 0.1
        img[8 * (m % 3) : 8 * (m % 3) + 8, :] += 0.8  # mode-specific bright band
        corpus.append((pts, img))
        modes.append(m)
    return corpus, np.array(modes)


class TestBuild:
    def test_descriptor_length(self):
        corpus, _ = make_corpus(24, n_modes=2)
        tree = build_cluster_tree(corpus, t_top=2, u_children=3, l_children=3, seed=0, hog_cfg=CFG)
        assert tree.descriptor_length == 2 + 2 * 3 + 2 * 3
        h = extract_descriptor(corpus[0][1], tree)
        assert h.shape == (tree.descriptor_length,)

    def test_default_sizes_give_210(self):
        corpus, _ = make_corpus(120, n_modes=6, seed=1)
        tree = build_cluster_tree(corpus, t_top=10, u_children=10, l_children=10,
                                  seed=0, hog_cfg=CFG)
        assert tree.descriptor_length == 210

    def test_single_cluster_collapse(self):
        corpus, _ = make_corpus(8, n_modes=1, seed=2)
        tree = build_cluster_tree(corpus, t_top=1, u_children=1, l_children=1, seed=0, hog_cfg=CFG)
        # three templates, all equal to the global mean HOG
        from facerel.hog import compute_hog

        mean_hog = np.stack([compute_hog(img, CFG) for _, img in corpus]).mean(axis=0)
        np.testing.assert_allclose(tree.top_templates[0], mean_hog, atol=1e-12)
        np.testing.assert_allclose(tree.upper[0].templates[0], mean_hog, atol=1e-12)
        np.testing.assert_allclose(tree.lower[0].templates[0], mean_hog, atol=1e-12)

    def test_identical_groups_yield_group_templates(self):
        # 2 groups x 4 identical faces; every template equals its group's HOG
        rng = np.random.default_rng(3)
        imgs = [rng.random((32, 32)) for _ in range(2)]
        pts = [np.clip(BASE_POINTS + off, 0, 1) for off in (-0.15, 0.15)]
        corpus = [(pts[g], imgs[g]) for g in range(2) for _ in range(4)]
        tree = build_cluster_tree(corpus, t_top=2, u_children=1, l_children=1, seed=0, hog_cfg=CFG)
        from facerel.hog import compute_hog

        for t in range(2):
            h_t = tree.top_templates[t]
            assert any(np.allclose(h_t, compute_hog(im, CFG), atol=1e-12) for im in imgs)
            np.testing.assert_allclose(tree.upper[t].templates[0], h_t, atol=1e-12)

    def test_small_top_node_prunes_children(self):
        # 1 mode with tight landmarks: some top node gets < U members
        corpus, _ = make_corpus(9, n_modes=3, seed=4)
        tree = build_cluster_tree(corpus, t_top=3, u_children=3, l_children=3, seed=0, hog_cfg=CFG)
        counts = [g.count for g in tree.upper]
        assert all(1 <= c <= 3 for c in counts)
        if any(c < 3 for c in counts):
            assert tree.pruned_nodes()

    def test_build_reproducible(self):
        corpus, _ = make_corpus(30, n_modes=3, seed=5)
        t1 = build_cluster_tree(corpus, 3, 2, 2, seed=7, hog_cfg=CFG)
        t2 = build_cluster_tree(corpus, 3, 2, 2, seed=7, hog_cfg=CFG)
        np.testing.assert_array_equal(t1.top_centroids, t2.top_centroids)
        np.testing.assert_array_equal(t1.h_mean, t2.h_mean)
        for a, b in zip(t1.upper, t2.upper):
            np.testing.assert_array_equal(a.templates, b.templates)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_landmarks(self, bad):
        corpus, _ = make_corpus(24, n_modes=2)
        corpus[5][0][3, 1] = bad
        with pytest.raises(ValueError, match="landmark coordinates must be finite"):
            build_cluster_tree(corpus, t_top=2, u_children=3, l_children=3, seed=0, hog_cfg=CFG)

    def test_rejects_tiny_corpus(self):
        corpus, _ = make_corpus(5)
        with pytest.raises(ValueError, match="too small"):
            build_cluster_tree(corpus, t_top=3, u_children=3, l_children=3, hog_cfg=CFG)

    def test_planted_modes_recovered_with_high_purity(self):
        corpus, modes = make_corpus(200, n_modes=10, seed=6, jitter=0.008)
        tree = build_cluster_tree(corpus, t_top=10, u_children=2, l_children=2,
                                  seed=1, hog_cfg=CFG)
        from facerel.kmeans import kmeans  # reuse assignment: nearest top centroid

        flat = np.stack([lm.reshape(-1) for lm, _ in corpus])
        d = np.linalg.norm(flat[:, None, :] - tree.top_centroids[None], axis=2)
        assign = d.argmin(axis=1)
        purity = sum(
            np.bincount(modes[assign == c]).max()
            for c in range(10)
            if np.any(assign == c)
        ) / len(corpus)
        assert purity >= 0.9


class TestExtract:
    def test_zero_distance_for_template_face(self):
        rng = np.random.default_rng(8)
        img = rng.random((32, 32))
        corpus = [(BASE_POINTS, img)] * 4
        tree = build_cluster_tree(corpus, 1, 1, 1, seed=0, hog_cfg=CFG)
        h = extract_descriptor(img, tree)
        np.testing.assert_allclose(h, 0.0, atol=1e-12)

    def test_nonnegative_and_stable(self):
        corpus, _ = make_corpus(20, seed=9)
        tree = build_cluster_tree(corpus, 2, 2, 2, seed=0, hog_cfg=CFG)
        probe = np.random.default_rng(10).random((32, 32))
        h1 = extract_descriptor(probe, tree)
        h2 = extract_descriptor(probe, tree)
        assert np.all(h1 >= 0)
        np.testing.assert_array_equal(h1, h2)

    def test_intensity_scaling_barely_moves_descriptor(self):
        corpus, _ = make_corpus(20, seed=11)
        tree = build_cluster_tree(corpus, 2, 2, 2, seed=0, hog_cfg=CFG)
        img = np.random.default_rng(12).random((32, 32))
        h1 = extract_descriptor(img, tree)
        h2 = extract_descriptor(2.0 * img, tree)
        assert np.max(np.abs(h1 - h2)) < 1e-5 * max(1.0, np.max(np.abs(h1)))

    def test_rejects_wrong_geometry(self):
        corpus, _ = make_corpus(20, seed=13)
        tree = build_cluster_tree(corpus, 2, 2, 2, seed=0, hog_cfg=CFG)
        with pytest.raises(ValueError, match="dimensionality"):
            extract_descriptor(np.zeros((48, 48)), tree)

    def test_standardization_roundtrip(self):
        corpus, _ = make_corpus(30, seed=14)
        tree = build_cluster_tree(corpus, 2, 2, 2, seed=0, hog_cfg=CFG)
        hs = np.stack([standardize_descriptor(extract_descriptor(img, tree), tree)
                       for _, img in corpus])
        np.testing.assert_allclose(hs.mean(axis=0), 0.0, atol=1e-10)
        live = tree.h_std > 1e-12
        np.testing.assert_allclose(hs.std(axis=0)[live], 1.0, atol=1e-10)


class TestBankIO:
    def test_roundtrip(self, tmp_path):
        corpus, _ = make_corpus(24, seed=15)
        tree = build_cluster_tree(corpus, 2, 3, 3, seed=0, hog_cfg=CFG)
        path = tmp_path / "bank.bin"
        save_bank(path, tree)
        loaded = load_bank(path)
        assert loaded.descriptor_length == tree.descriptor_length
        assert loaded.sentinel == tree.sentinel
        np.testing.assert_array_equal(loaded.top_templates, tree.top_templates)
        np.testing.assert_array_equal(loaded.h_mean, tree.h_mean)
        probe = np.random.default_rng(16).random((32, 32))
        np.testing.assert_array_equal(
            network_descriptor(probe, loaded), network_descriptor(probe, tree)
        )

    def test_save_twice_identical(self, tmp_path):
        corpus, _ = make_corpus(24, seed=17)
        tree = build_cluster_tree(corpus, 2, 2, 2, seed=0, hog_cfg=CFG)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_bank(p1, tree)
        save_bank(p2, tree)
        assert p1.read_bytes() == p2.read_bytes()


def pruned_bank(seed):
    """A T=4, U=L=6 bank on 40 faces in 3 modes, and its corpus."""
    corpus, _ = make_corpus(40, 3, seed)
    return corpus, build_cluster_tree(corpus, 4, 6, 6, seed=0, hog_cfg=CFG)


def corpus_hogs(corpus):
    return compute_hog_batch(np.stack([img for _, img in corpus]), CFG)


class TestDescriptorPath:
    def test_build_computes_each_hog_once(self, monkeypatch):
        images = []
        single, batch = bridge.compute_hog, bridge.compute_hog_batch
        monkeypatch.setattr(bridge, "compute_hog",
                            lambda img, cfg=None: images.append(1) or single(img, cfg))
        monkeypatch.setattr(bridge, "compute_hog_batch",
                            lambda imgs, cfg=None: images.append(len(imgs)) or batch(imgs, cfg))
        corpus, _ = make_corpus(30, n_modes=3, seed=20)
        build_cluster_tree(corpus, 3, 2, 2, seed=0, hog_cfg=CFG)
        assert sum(images) == len(corpus)

    def test_build_statistics_come_from_query_time_descriptors(self):
        corpus, tree = pruned_bank(1)
        assert tree.pruned_nodes()
        hs = np.stack([extract_descriptor(img, tree) for _, img in corpus])
        np.testing.assert_array_equal(descriptors(corpus_hogs(corpus), tree), hs)
        constant = np.all(hs == hs[0], axis=0)
        np.testing.assert_array_equal(tree.h_mean[~constant], hs.mean(axis=0)[~constant])
        np.testing.assert_array_equal(tree.h_mean[constant], hs[0, constant])
        np.testing.assert_array_equal(tree.h_std, hs.std(axis=0))
        assert tree.sentinel == hs[:, tree.slots].max()  # the largest exact distance

    def test_descriptor_is_the_per_template_norm(self):
        corpus, tree = pruned_bank(1)
        hog = compute_hog(corpus[0][1], CFG)
        want = np.full(tree.descriptor_length, tree.sentinel)
        want[: tree.t_top] = np.linalg.norm(tree.top_templates - hog, axis=1)
        for region, first, width in (("upper", tree.t_top, tree.u_max),
                                     ("lower", tree.t_top * (1 + tree.u_max), tree.l_max)):
            for t, g in enumerate(getattr(tree, region)):
                start = first + t * width
                want[start : start + g.count] = np.linalg.norm(g.templates - hog, axis=1)
        np.testing.assert_array_equal(extract_descriptor(corpus[0][1], tree), want)

    def test_constant_slots_standardize_to_exactly_zero(self):
        pruned = 0
        for seed in range(8):
            corpus, tree = pruned_bank(seed)
            raw = np.stack([extract_descriptor(img, tree) for _, img in corpus])
            sentinel_slots = np.all(raw == tree.sentinel, axis=0)
            pruned += bool(sentinel_slots.any())
            hs = standardize_descriptor(raw, tree)
            np.testing.assert_array_equal(hs[:, sentinel_slots], 0.0)
        assert pruned >= 3

    def test_pruned_bank_roundtrip_keeps_descriptors(self, tmp_path):
        corpus, tree = pruned_bank(1)
        assert tree.pruned_nodes()
        path = tmp_path / "bank.bin"
        save_bank(path, tree)
        loaded = load_bank(path)
        np.testing.assert_array_equal(loaded.templates, tree.templates)
        np.testing.assert_array_equal(loaded.slots, tree.slots)
        hogs = corpus_hogs(corpus)
        np.testing.assert_array_equal(descriptors(hogs, loaded), descriptors(hogs, tree))


def _repeat_rows(arrays, name):
    arrays[name] = np.concatenate([arrays[name]] * 4)  # more than u_max=3 rows


@pytest.mark.parametrize(
    "edit, field",
    [
        (lambda meta, arrays: arrays.pop("upper_1.templates"), "upper_1.templates"),
        (lambda meta, arrays: meta.pop("sentinel"), "sentinel"),
        (lambda meta, arrays: [_repeat_rows(arrays, f"upper_0.{part}")
                               for part in ("centroids", "templates")], "upper_0.centroids"),
        (lambda meta, arrays: arrays.update(h_mean=arrays["h_mean"][:-1]), "h_mean"),
        (lambda meta, arrays: arrays.update({"lower_1.templates": arrays["lower_1.templates"][:, 1:]}),
         "lower_1.templates"),
        (lambda meta, arrays: meta["schema"].update(upper=[0, 1, 2, 3], lower=[4, 5, 6, 7, 8, 9]),
         "'schema'"),
        (lambda meta, arrays: meta["schema"]["point_names"].reverse(), "'schema'"),
        (lambda meta, arrays: meta.pop("schema"), "'schema'"),
        (lambda meta, arrays: meta["hog"].update(bins=8), "'hog'"),
    ],
    ids=["missing-templates", "missing-sentinel", "too-many-children", "short-h-mean",
         "template-width", "other-split", "other-points", "missing-schema", "hog-bins"],
)
def test_load_bank_rejects_malformed_field(tmp_path, edit, field):
    corpus, _ = make_corpus(24, seed=15)
    path = tmp_path / "bank.bin"
    save_bank(path, build_cluster_tree(corpus, 2, 3, 3, seed=0, hog_cfg=CFG))
    kind, meta, arrays = load_container(path)
    edit(meta, arrays)
    save_container(path, kind, meta, arrays)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*{re.escape(field)}"):
        load_bank(path)
