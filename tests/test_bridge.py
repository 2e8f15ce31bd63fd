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
from facerel.hog import compute_hog, compute_hog_batch
from facerel.serialize import load_container, save_container

from oracles import spoil_entry

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


def child_templates(tree, region, t):
    """The template rows of top node ``t``'s ``region`` children, found from
    the per-node counts alone: top rows, then upper rows, then lower rows."""
    counts = tree.upper_counts if region == "upper" else tree.lower_counts
    start = tree.t_top + (0 if region == "upper" else sum(tree.upper_counts)) + sum(counts[:t])
    return tree.templates[start : start + counts[t]]


class TestBuild:
    def test_descriptor_length(self):
        corpus, _ = make_corpus(24, n_modes=2)
        tree = build_cluster_tree(corpus, t_top=2, u_children=3, l_children=3, seed=0)
        assert tree.descriptor_length == 2 + 2 * 3 + 2 * 3
        h = extract_descriptor(corpus[0][1], tree)
        assert h.shape == (tree.descriptor_length,)

    def test_default_sizes_give_210(self):
        corpus, _ = make_corpus(120, n_modes=6, seed=1)
        tree = build_cluster_tree(corpus, t_top=10, u_children=10, l_children=10,
                                  seed=0)
        assert tree.descriptor_length == 210

    def test_single_cluster_collapse(self):
        corpus, _ = make_corpus(8, n_modes=1, seed=2)
        tree = build_cluster_tree(corpus, t_top=1, u_children=1, l_children=1, seed=0)
        # three templates, all equal to the global mean HOG
        mean_hog = np.stack([compute_hog(img) for _, img in corpus]).mean(axis=0)
        assert tree.templates.shape == (3, len(mean_hog))
        assert tree.upper_counts == tree.lower_counts == (1,)
        np.testing.assert_allclose(tree.templates, np.stack([mean_hog] * 3), atol=1e-12)

    def test_identical_groups_yield_group_templates(self):
        # 2 groups x 4 identical faces; every template equals its group's HOG
        rng = np.random.default_rng(3)
        imgs = [rng.random((32, 32)) for _ in range(2)]
        pts = [np.clip(BASE_POINTS + off, 0, 1) for off in (-0.15, 0.15)]
        corpus = [(pts[g], imgs[g]) for g in range(2) for _ in range(4)]
        tree = build_cluster_tree(corpus, t_top=2, u_children=1, l_children=1, seed=0)
        for t in range(2):
            h_t = tree.templates[t]
            assert any(np.allclose(h_t, compute_hog(im), atol=1e-12) for im in imgs)
            for region in ("upper", "lower"):
                np.testing.assert_allclose(child_templates(tree, region, t), [h_t], atol=1e-12)

    def test_children_split_on_their_own_region(self):
        # two groups of 4 identical faces whose upper landmarks differ and
        # lower landmarks agree: one top node, whose two upper children are
        # the groups and whose one lower child is everyone
        rng = np.random.default_rng(31)
        imgs = [rng.random((32, 32)) for _ in range(2)]
        pts = [BASE_POINTS.copy() for _ in range(2)]
        for g, off in enumerate((-0.1, 0.1)):
            pts[g][list(bridge.UPPER), 0] += off
        corpus = [(pts[g], imgs[g]) for g in range(2) for _ in range(4)]
        tree = build_cluster_tree(corpus, t_top=1, u_children=2, l_children=1, seed=0)
        hogs = compute_hog_batch(np.stack(imgs))
        assert (tree.upper_counts, tree.lower_counts) == ((2,), (1,))
        np.testing.assert_allclose(tree.templates[0], hogs.mean(axis=0), atol=1e-12)
        upper = child_templates(tree, "upper", 0)
        order = np.linalg.norm(upper[:, None] - hogs[None], axis=2).argmin(axis=1)
        assert sorted(order) == [0, 1]
        np.testing.assert_allclose(upper, hogs[order], atol=1e-12)
        np.testing.assert_allclose(child_templates(tree, "lower", 0), [hogs.mean(axis=0)],
                                   atol=1e-12)

    def test_small_top_node_prunes_children(self):
        # 1 mode with tight landmarks: some top node gets < U members
        corpus, _ = make_corpus(9, n_modes=3, seed=4)
        tree = build_cluster_tree(corpus, t_top=3, u_children=3, l_children=3, seed=0)
        counts = tree.upper_counts + tree.lower_counts
        assert all(1 <= c <= 3 for c in counts)
        assert len(tree.templates) == len(tree.slots) == 3 + sum(counts)
        if any(c < 3 for c in counts):
            assert tree.pruned_nodes()

    def test_build_reproducible(self):
        corpus, _ = make_corpus(30, n_modes=3, seed=5)
        t1 = build_cluster_tree(corpus, 3, 2, 2, seed=7)
        t2 = build_cluster_tree(corpus, 3, 2, 2, seed=7)
        np.testing.assert_array_equal(t1.templates, t2.templates)
        np.testing.assert_array_equal(t1.h_mean, t2.h_mean)
        assert (t1.upper_counts, t1.lower_counts) == (t2.upper_counts, t2.lower_counts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_landmarks(self, bad):
        corpus, _ = make_corpus(24, n_modes=2)
        corpus[5][0][3, 1] = bad
        with pytest.raises(ValueError, match="landmark coordinates must be finite"):
            build_cluster_tree(corpus, t_top=2, u_children=3, l_children=3, seed=0)

    @pytest.mark.parametrize("field, value", [
        ("t_top", 2.0), ("t_top", True), ("u_children", "3"), ("l_children", None),
        ("l_children", np.float64(3)),
    ], ids=["t-float", "t-bool", "u-string", "l-none", "l-numpy-float"])
    def test_rejects_non_int_cluster_counts(self, field, value):
        corpus, _ = make_corpus(24, n_modes=2)
        counts = dict(t_top=2, u_children=3, l_children=3)
        counts[field] = value
        with pytest.raises(ValueError, match=f"'{field}' must be an int"):
            build_cluster_tree(corpus, **counts, seed=0)

    def test_rejects_tiny_corpus(self):
        corpus, _ = make_corpus(5)
        with pytest.raises(ValueError, match="too small"):
            build_cluster_tree(corpus, t_top=3, u_children=3, l_children=3)

    def test_planted_modes_recovered_with_high_purity(self):
        # Every face of a landmark mode shows that mode's own image, so a top
        # template is one mode's HOG exactly when its cluster holds that mode
        # alone: the top level recovers every planted mode.
        corpus, modes = make_corpus(200, n_modes=10, seed=6, jitter=0.008)
        images = np.random.default_rng(60).random((10, 32, 32))
        corpus = [(lm, images[m]) for (lm, _), m in zip(corpus, modes)]
        tree = build_cluster_tree(corpus, t_top=10, u_children=2, l_children=2,
                                  seed=1)
        mode_hogs = compute_hog_batch(images)
        gap = np.linalg.norm(tree.templates[:10, None] - mode_hogs[None], axis=2)
        assert sorted(gap.argmin(axis=1)) == list(range(10))
        np.testing.assert_allclose(gap.min(axis=1), 0.0, atol=1e-12)


class TestExtract:
    def test_zero_distance_for_template_face(self):
        rng = np.random.default_rng(8)
        img = rng.random((32, 32))
        corpus = [(BASE_POINTS, img)] * 4
        tree = build_cluster_tree(corpus, 1, 1, 1, seed=0)
        h = extract_descriptor(img, tree)
        np.testing.assert_allclose(h, 0.0, atol=1e-12)

    def test_nonnegative_and_stable(self):
        corpus, _ = make_corpus(20, seed=9)
        tree = build_cluster_tree(corpus, 2, 2, 2, seed=0)
        probe = np.random.default_rng(10).random((32, 32))
        h1 = extract_descriptor(probe, tree)
        h2 = extract_descriptor(probe, tree)
        assert np.all(h1 >= 0)
        np.testing.assert_array_equal(h1, h2)

    def test_intensity_scaling_barely_moves_descriptor(self):
        corpus, _ = make_corpus(20, seed=11)
        tree = build_cluster_tree(corpus, 2, 2, 2, seed=0)
        img = np.random.default_rng(12).random((32, 32))
        h1 = extract_descriptor(img, tree)
        h2 = extract_descriptor(2.0 * img, tree)
        assert np.max(np.abs(h1 - h2)) < 1e-5 * max(1.0, np.max(np.abs(h1)))

    def test_rejects_wrong_geometry(self):
        corpus, _ = make_corpus(20, seed=13)
        tree = build_cluster_tree(corpus, 2, 2, 2, seed=0)
        with pytest.raises(ValueError, match="dimensionality"):
            extract_descriptor(np.zeros((48, 48)), tree)

    @pytest.mark.parametrize("lead", [(), (1, 1)], ids=["1d", "3d"])
    def test_descriptors_name_the_shape_of_a_stack_that_is_not_2d(self, lead):
        corpus, _ = make_corpus(20, seed=13)
        tree = build_cluster_tree(corpus, 2, 2, 2, seed=0)
        shape = lead + (tree.hog_dim,)
        want = rf"expected an \(N, {tree.hog_dim}\) stack of HOGs, got shape "
        with pytest.raises(ValueError, match=f"^{want}{re.escape(str(shape))}$"):
            descriptors(np.zeros(shape), tree)

    @pytest.mark.parametrize("shape", [(), (11,), (2, 9)], ids=["0d", "long", "short-rows"])
    def test_standardization_refuses_a_wrong_length(self, shape):
        corpus, _ = make_corpus(20, seed=13)
        tree = build_cluster_tree(corpus, 2, 2, 2, seed=0)
        assert tree.descriptor_length == 10
        want = f"descriptor of shape {shape} does not end in the bank's descriptor length 10"
        with pytest.raises(ValueError, match=re.escape(want)):
            standardize_descriptor(np.ones(shape), tree)

    def test_standardization_roundtrip(self):
        corpus, _ = make_corpus(30, seed=14)
        tree = build_cluster_tree(corpus, 2, 2, 2, seed=0)
        hs = np.stack([standardize_descriptor(extract_descriptor(img, tree), tree)
                       for _, img in corpus])
        np.testing.assert_allclose(hs.mean(axis=0), 0.0, atol=1e-10)
        live = tree.h_std > 1e-12
        np.testing.assert_allclose(hs.std(axis=0)[live], 1.0, atol=1e-10)


class TestBankIO:
    def test_roundtrip(self, tmp_path):
        corpus, _ = make_corpus(24, seed=15)
        tree = build_cluster_tree(corpus, 2, 3, 3, seed=0)
        path = tmp_path / "bank.bin"
        save_bank(path, tree)
        assert sorted(load_container(path)[2]) == ["h_mean", "h_std", "templates"]
        loaded = load_bank(path)
        assert loaded.descriptor_length == tree.descriptor_length
        assert loaded.sentinel == tree.sentinel
        np.testing.assert_array_equal(loaded.templates, tree.templates)
        assert (loaded.upper_counts, loaded.lower_counts) == (tree.upper_counts, tree.lower_counts)
        np.testing.assert_array_equal(loaded.h_mean, tree.h_mean)
        probe = np.random.default_rng(16).random((32, 32))
        np.testing.assert_array_equal(
            network_descriptor(probe, loaded), network_descriptor(probe, tree)
        )

    def test_save_twice_identical(self, tmp_path):
        corpus, _ = make_corpus(24, seed=17)
        tree = build_cluster_tree(corpus, 2, 2, 2, seed=0)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_bank(p1, tree)
        save_bank(p2, tree)
        assert p1.read_bytes() == p2.read_bytes()


def pruned_bank(seed):
    """A T=4, U=L=6 bank on 40 faces in 3 modes, and its corpus."""
    corpus, _ = make_corpus(40, 3, seed)
    return corpus, build_cluster_tree(corpus, 4, 6, 6, seed=0)


def corpus_hogs(corpus):
    return compute_hog_batch(np.stack([img for _, img in corpus]))


class TestDescriptorPath:
    def test_build_computes_each_hog_once(self, monkeypatch):
        images = []
        single, batch = bridge.compute_hog, bridge.compute_hog_batch
        monkeypatch.setattr(bridge, "compute_hog",
                            lambda img: images.append(1) or single(img))
        monkeypatch.setattr(bridge, "compute_hog_batch",
                            lambda imgs: images.append(len(imgs)) or batch(imgs))
        corpus, _ = make_corpus(30, n_modes=3, seed=20)
        build_cluster_tree(corpus, 3, 2, 2, seed=0)
        assert sum(images) == len(corpus)

    def test_build_statistics_come_from_query_time_descriptors(self):
        corpus, tree = pruned_bank(1)
        tree.build_rows.clear()  # every query below computes its descriptor
        assert tree.pruned_nodes()
        hs = np.stack([extract_descriptor(img, tree) for _, img in corpus])
        np.testing.assert_array_equal(descriptors(corpus_hogs(corpus), tree), hs)
        constant = np.all(hs == hs[0], axis=0)
        np.testing.assert_array_equal(tree.h_mean[~constant], hs.mean(axis=0)[~constant])
        np.testing.assert_array_equal(tree.h_mean[constant], hs[0, constant])
        np.testing.assert_array_equal(tree.h_std, hs.std(axis=0))
        assert tree.sentinel == hs[:, tree.slots].max()  # the largest exact distance

    def test_descriptor_is_the_per_template_norm(self):
        corpus, pruned = pruned_bank(1)
        uneven = build_cluster_tree(corpus, 3, 5, 2, seed=0)  # U != L
        hog = compute_hog(corpus[0][1])
        for tree in (pruned, uneven):
            tree.build_rows.clear()
            want = np.full(tree.descriptor_length, tree.sentinel)
            want[: tree.t_top] = np.linalg.norm(tree.templates[: tree.t_top] - hog, axis=1)
            for region, first, width in (("upper", tree.t_top, tree.u_max),
                                         ("lower", tree.t_top * (1 + tree.u_max), tree.l_max)):
                for t in range(tree.t_top):
                    rows = child_templates(tree, region, t)
                    start = first + t * width
                    want[start : start + len(rows)] = np.linalg.norm(rows - hog, axis=1)
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


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestBuildRows:
    """A built tree looks up the descriptors of its own build faces."""

    @pytest.fixture
    def banks(self, tmp_path):
        corpus, tree = pruned_bank(1)
        assert tree.pruned_nodes()
        save_bank(tmp_path / "bank.bin", tree)
        loaded = load_bank(tmp_path / "bank.bin")
        assert len(tree.build_rows) == len(corpus) and not loaded.build_rows
        return corpus, tree, loaded

    @pytest.fixture
    def hog_calls(self, monkeypatch):
        calls = []
        single = bridge.compute_hog
        monkeypatch.setattr(bridge, "compute_hog",
                            lambda img: calls.append(1) or single(img))
        return calls

    def test_hits_equal_the_computed_descriptors(self, banks):
        corpus, tree, loaded = banks
        for _, img in corpus:
            for query in (extract_descriptor, network_descriptor):
                assert _same_bits(query(img, tree), query(img, loaded))

    def test_hit_computes_no_hog_and_returns_a_copy(self, banks, hog_calls):
        corpus, tree, loaded = banks
        face = corpus[3][1]
        extract_descriptor(face, tree)[:] = -1.0
        network_descriptor(face, tree)
        assert hog_calls == []
        assert _same_bits(extract_descriptor(face, tree), extract_descriptor(face, loaded))

    def test_altered_face_misses(self, banks, hog_calls):
        corpus, tree, loaded = banks
        face = corpus[5][1].copy()
        face[7, 11] += 0.25
        h = extract_descriptor(face, tree)
        assert hog_calls == [1]
        assert _same_bits(h, extract_descriptor(face, loaded))
        assert not _same_bits(h, extract_descriptor(corpus[5][1], tree))

    def test_reshaped_build_face_is_refused(self, banks):
        corpus, tree, _ = banks
        with pytest.raises(ValueError, match="2-D"):
            extract_descriptor(corpus[0][1].reshape(-1), tree)


def _set(entries, key, value):
    entries[key] = value


#: One edit of a saved T=2, U=L=3 bank (every count 3) per case, and the
#: field its refusal must name.
MALFORMED = {
    "missing-templates": (lambda meta, arrays: arrays.pop("templates"), "'templates'"),
    "missing-sentinel": (lambda meta, arrays: meta.pop("sentinel"), "'sentinel'"),
    "missing-upper-counts": (lambda meta, arrays: meta.pop("upper_counts"), "'upper_counts'"),
    "stray-array": (lambda meta, arrays: _set(arrays, "stray", np.zeros(3)),
                    "unknown bridge bank array 'stray'"),
    "unknown-field": (lambda meta, arrays: _set(meta, "bogus", 1),
                      "unknown bridge bank metadata field 'bogus'"),
    "short-h-mean": (lambda meta, arrays: _set(arrays, "h_mean", arrays["h_mean"][:-1]), "h_mean"),
    "template-width": (lambda meta, arrays: _set(arrays, "templates", arrays["templates"][:, 1:]),
                       "templates"),
    "templates-without-columns": (
        lambda meta, arrays: _set(arrays, "templates", arrays["templates"][:, :0]),
        "0-wide templates"),
    "missing-template-row": (
        lambda meta, arrays: _set(arrays, "templates", arrays["templates"][:-1]), "templates"),
    "extra-template-row": (
        lambda meta, arrays: _set(arrays, "templates", np.concatenate([arrays["templates"]] * 2)),
        "templates"),
    "t-top-fraction": (lambda meta, arrays: _set(meta, "t_top", 2.5), "'t_top'"),
    "t-top-zero": (lambda meta, arrays: _set(meta, "t_top", 0), "'t_top'"),
    "u-max-string": (lambda meta, arrays: _set(meta, "u_max", "3"), "'u_max'"),
    "l-max-bool": (lambda meta, arrays: _set(meta, "l_max", True), "'l_max'"),
    "l-max-float": (lambda meta, arrays: _set(meta, "l_max", 3.0), "'l_max'"),
    "counts-not-a-list": (lambda meta, arrays: _set(meta, "upper_counts", 3), "upper_counts"),
    "counts-too-long": (lambda meta, arrays: meta["upper_counts"].append(3), "upper_counts"),
    "counts-too-short": (lambda meta, arrays: meta["lower_counts"].pop(), "lower_counts"),
    "count-zero": (lambda meta, arrays: _set(meta["lower_counts"], 1, 0), "'lower_counts[1]'"),
    "count-above-u-max": (lambda meta, arrays: _set(meta["upper_counts"], 0, 4),
                          "'upper_counts[0]'"),
    "count-above-l-max": (lambda meta, arrays: _set(meta["lower_counts"], 1, 4),
                          "'lower_counts[1]'"),
    "count-beyond-the-rows": (lambda meta, arrays: meta.update(u_max=2**40,
                                                               upper_counts=[2**40, 3]),
                              "templates has shape"),
    "count-float": (lambda meta, arrays: _set(meta["upper_counts"], 1, 3.0), "'upper_counts[1]'"),
    "count-bool": (lambda meta, arrays: _set(meta["lower_counts"], 0, True), "'lower_counts[0]'"),
    "count-string": (lambda meta, arrays: _set(meta["upper_counts"], 0, "3"), "'upper_counts[0]'"),
    "sentinel-string": (lambda meta, arrays: _set(meta, "sentinel", "0.5"), "sentinel"),
    "sentinel-bool": (lambda meta, arrays: _set(meta, "sentinel", True), "sentinel"),
    "sentinel-null": (lambda meta, arrays: _set(meta, "sentinel", None), "sentinel"),
    "other-split": (lambda meta, arrays: meta["schema"].update(upper=[0, 1, 2, 3],
                                                               lower=[4, 5, 6, 7, 8, 9]),
                    "'schema'"),
    "other-points": (lambda meta, arrays: meta["schema"]["point_names"].reverse(), "'schema'"),
    "missing-schema": (lambda meta, arrays: meta.pop("schema"), "'schema'"),
    "schema-float-index": (lambda meta, arrays: _set(meta["schema"]["upper"], 0, 0.0), "'schema'"),
    "missing-hog": (lambda meta, arrays: meta.pop("hog"), "'hog'"),
    "hog-bins": (lambda meta, arrays: meta["hog"].update(bins=8), "'hog'"),
    "hog-cell-fraction": (lambda meta, arrays: meta["hog"].update(cell=8.5), "'hog'"),
    "hog-cell-float": (lambda meta, arrays: meta["hog"].update(cell=8.0), "'hog'"),
    "hog-block-bool": (lambda meta, arrays: meta["hog"].update(block=True), "'hog'"),
    "hog-bins-string": (lambda meta, arrays: meta["hog"].update(bins="9"), "'hog'"),
    "hog-eps-zero": (lambda meta, arrays: meta["hog"].update(eps=0), "'hog'"),
    "hog-eps-string": (lambda meta, arrays: meta["hog"].update(eps="1e-5"), "'hog'"),
    "hog-unknown-key": (lambda meta, arrays: meta["hog"].update(cells=8), "'hog'"),
    "hog-missing-key": (lambda meta, arrays: meta["hog"].pop("eps"), "'hog'"),
    "hog-not-a-dict": (lambda meta, arrays: _set(meta, "hog", [8, 2, 9, 1e-5]), "'hog'"),
    "nan-h-std": (lambda meta, arrays: spoil_entry(arrays, "h_std", np.nan),
                  "h_std holds non-finite"),
    "negative-h-std": (lambda meta, arrays: spoil_entry(arrays, "h_std", -0.5),
                       "h_std holds negative"),
    "inf-h-mean": (lambda meta, arrays: spoil_entry(arrays, "h_mean", -np.inf),
                   "h_mean holds non-finite"),
    "inf-template": (lambda meta, arrays: spoil_entry(arrays, "templates", np.inf),
                     "templates holds non-finite"),
    "nan-template": (lambda meta, arrays: spoil_entry(arrays, "templates", np.nan),
                     "templates holds non-finite"),
}


@pytest.mark.parametrize("edit, field", MALFORMED.values(), ids=MALFORMED.keys())
def test_load_bank_rejects_malformed_field(tmp_path, edit, field):
    corpus, _ = make_corpus(24, seed=15)
    path = tmp_path / "bank.bin"
    tree = build_cluster_tree(corpus, 2, 3, 3, seed=0)
    assert tree.upper_counts == tree.lower_counts == (3, 3)
    save_bank(path, tree)
    kind, meta, arrays = load_container(path)
    edit(meta, arrays)
    save_container(path, kind, meta, arrays)
    with pytest.raises(ValueError, match=f"{re.escape(str(path))}.*{re.escape(field)}"):
        load_bank(path)
