"""The planted-structure generator: rates, determinism, recoverability."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facerel import synth
from facerel.data import RELATION_NAMES, load_manifest
from facerel.synth import (
    CORPUS_GROUPS,
    N_EXPR,
    POSE_MODES,
    RELATION_RATES,
    SCENE_HEIGHT,
    SCENE_WIDTH,
    FaceLatents,
    SynthConfig,
    attribute_labels,
    face_landmarks,
    relation_labels,
    render_face,
    sample_face_latents,
    synth_attr_corpus,
    synth_pair_corpus,
    write_synth_dataset,
)

from oracles import naive_render_face


def small_cfg(**kw):
    base = dict(n_a=20, n_b=20, n_c=20, n_pairs_train=30, n_pairs_test=10)
    base.update(kw)
    return SynthConfig(**base)


@pytest.mark.parametrize("field, value", [
    ("image_size", 0), ("image_size", -3), ("image_size", 4.0), ("image_size", True),
    ("n_a", 2.5), ("n_b", "400"), ("n_c", None), ("n_pairs_train", 0),
    ("n_pairs_test", np.int64(5)),
])
def test_config_refuses_fields_that_are_not_positive_ints(field, value):
    with pytest.raises(ValueError, match=f"SynthConfig {field} must be an int >= 1"):
        SynthConfig(**{field: value})


class TestFaces:
    def test_render_deterministic(self):
        lat = sample_face_latents(np.random.default_rng(0))
        a = render_face(lat, np.random.default_rng(1), 48)
        b = render_face(lat, np.random.default_rng(1), 48)
        np.testing.assert_array_equal(a, b)
        assert a.min() >= 0 and a.max() <= 1

    def test_latent_factors_move_pixels(self, monkeypatch):
        monkeypatch.setattr(synth, "NOISE", 0.0)
        rng_img = lambda: np.random.default_rng(2)
        base = dict(mode=3, gender=0, expr=1, smiling=0, mouth_open=0, young=0, beard=0)
        ref = render_face(FaceLatents(**base), rng_img(), 48)
        for key, val in (("mode", 7), ("gender", 1), ("expr", 4), ("smiling", 1),
                         ("mouth_open", 1), ("young", 1), ("beard", 2)):
            lat = FaceLatents(**{**base, key: val})
            img = render_face(lat, rng_img(), 48)
            assert np.abs(img - ref).max() > 0.2, f"factor {key} is invisible"

    def test_labels_are_exact_function_of_latents(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            lat = sample_face_latents(rng)
            v = attribute_labels(lat)
            # one pose, one expression and one beard slot fire, plus the flags
            expected = 3 + lat.gender + lat.smiling + lat.mouth_open + lat.young
            assert v.sum() == expected
            assert v[1 + lat.mode // 2] == 1.0
            assert v[6 + lat.expr] == 1.0

    def test_landmarks_in_unit_box_and_mode_separated(self, monkeypatch):
        monkeypatch.setattr(synth, "LANDMARK_JITTER", 0.0)
        rng = np.random.default_rng(4)
        lm0 = face_landmarks(0, rng)
        lm9 = face_landmarks(9, rng)
        assert lm0.min() >= 0 and lm0.max() <= 1
        assert np.linalg.norm(lm0 - lm9) > 0.3


face_latents = st.builds(
    FaceLatents,
    mode=st.integers(0, POSE_MODES - 1),
    gender=st.integers(0, 1),
    expr=st.integers(0, N_EXPR - 1),
    smiling=st.integers(0, 1),
    mouth_open=st.integers(0, 1),
    young=st.integers(0, 1),
    beard=st.integers(0, 3),
)


class TestCachedRender:
    @settings(max_examples=80, deadline=None)
    @given(face_latents, st.sampled_from([24, 48]) | st.integers(40, 56),
           st.integers(0, 2**32 - 1))
    def test_render_is_the_uncached_render(self, lat, size, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = render_face(lat, rng, size)
        want = naive_render_face(lat, ref, size)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_writing_into_a_face_leaves_the_next_render_alone(self):
        lat = FaceLatents(mode=4, gender=1, expr=5, smiling=0, mouth_open=1, young=0, beard=3)
        first = render_face(lat, np.random.default_rng(6), 48)
        first[:] = -1.0
        again = render_face(lat, np.random.default_rng(6), 48)
        assert again.tobytes() == naive_render_face(lat, np.random.default_rng(6), 48).tobytes()

    def test_cached_arrays_refuse_writes(self):
        render_face(FaceLatents(2, 0, 1, 1, 0, 1, 0), np.random.default_rng(0), 48)
        for a in (*synth._grid(48, 48), synth._background(2, 48), synth._glyph_mask(1, 10, 19)):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0] = 0


class TestAttrCorpora:
    def test_masks_follow_group_coverage(self):
        cfg = small_cfg()
        a, _ = synth_attr_corpus(cfg, "a", 5, ("gender",), seed=0)
        b, _ = synth_attr_corpus(cfg, "b", 5, ("expression",), seed=1)
        c, _ = synth_attr_corpus(cfg, "c", 5, ("gender", "pose", "expression", "age"), seed=2)
        assert a[0].mask.sum() == 1 and a[0].mask[0]
        assert b[0].mask.sum() == 9 and b[0].mask[6:15].all()
        assert c[0].mask.sum() == 20

    def test_seeded_determinism(self):
        cfg = small_cfg()
        s1, l1 = synth_attr_corpus(cfg, "a", 8, ("gender",), seed=5)
        s2, l2 = synth_attr_corpus(cfg, "a", 8, ("gender",), seed=5)
        assert l1 == l2
        for x, y in zip(s1, s2):
            np.testing.assert_array_equal(x.image, y.image)
            np.testing.assert_array_equal(x.landmarks, y.landmarks)


class TestPairs:
    def test_labels_match_rule_table(self):
        cfg = small_cfg(n_pairs_train=60)
        samples, _, latents = synth_pair_corpus(cfg, 60, seed=0)
        for s, pl in zip(samples, latents):
            np.testing.assert_array_equal(s.relations, relation_labels(pl))

    def test_table_imbalance_rate_hit(self):
        # dominant rate set from the 418:7041 split -> fraction near 0.056
        cfg = small_cfg()
        n = 600
        samples, _, _ = synth_pair_corpus(cfg, n, seed=1)
        rel = np.stack([s.relations for s in samples])
        dom = rel[:, RELATION_NAMES.index("dominant")].mean()
        assert abs(dom - 418 / 7459) < 0.01

    def test_all_default_rates_hit_exactly(self):
        cfg = small_cfg()
        n = 500
        samples, _, _ = synth_pair_corpus(cfg, n, seed=2)
        rel = np.stack([s.relations for s in samples])
        for i, name in enumerate(RELATION_NAMES):
            want = round(n * RELATION_RATES[name])
            assert rel[:, i].sum() == want, name

    def test_seeded_determinism(self):
        cfg = small_cfg()
        s1, sc1, l1 = synth_pair_corpus(cfg, 12, seed=3)
        s2, sc2, l2 = synth_pair_corpus(cfg, 12, seed=3)
        assert l1 == l2
        for a, b in zip(sc1, sc2):
            np.testing.assert_array_equal(a, b)

    def test_boxes_inside_scene(self):
        cfg = small_cfg()
        samples, scenes, _ = synth_pair_corpus(cfg, 40, seed=4)
        for s in samples:
            for box in (s.left_box, s.right_box):
                wp, hp = box.pixel_extent(*s.image_dims)
                assert box.x >= 0 and box.y >= 0
                assert box.x + wp <= SCENE_WIDTH
                assert box.y + hp <= SCENE_HEIGHT


class TestDatasetOnDisk:
    def test_write_and_load_round_trip(self, tmp_path):
        cfg = small_cfg()
        paths = write_synth_dataset(cfg, seed=7, out_dir=tmp_path)
        size = (cfg.image_size, cfg.image_size)
        kind, split, samples = load_manifest(paths["corpus_a"], face_size=size)
        assert kind == "attributes" and len(samples) == cfg.n_a
        assert samples[0].mask.sum() == 1  # corpus A: gender only
        kind, split, pairs = load_manifest(paths["pairs_train"])
        assert kind == "pairs" and len(pairs) == cfg.n_pairs_train

        sidecar = json.loads((tmp_path / "synth_config.json").read_text())
        assert sorted(sidecar["config"]) == ["image_size", "n_a", "n_b", "n_c",
                                             "n_pairs_test", "n_pairs_train"]
        assert cfg.corpus_groups is CORPUS_GROUPS
        assert sidecar["rules"]["warm"] == "both faces smiling"
        assert len(sidecar["latents"]["pairs_train"]) == cfg.n_pairs_train

    def test_byte_identical_rerun(self, tmp_path):
        cfg = small_cfg(n_a=6, n_b=6, n_c=6, n_pairs_train=6, n_pairs_test=4)
        d1, d2 = tmp_path / "one", tmp_path / "two"
        write_synth_dataset(cfg, seed=9, out_dir=d1)
        write_synth_dataset(cfg, seed=9, out_dir=d2)
        files1 = sorted(p.relative_to(d1) for p in d1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(d2) for p in d2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (d1 / rel).read_bytes() == (d2 / rel).read_bytes(), rel

    def test_loaded_crops_match_in_memory_generation(self, tmp_path):
        cfg = small_cfg(n_pairs_train=5, n_pairs_test=2)
        paths = write_synth_dataset(cfg, seed=11, out_dir=tmp_path)
        _, _, loaded = load_manifest(paths["pairs_train"],
                                     face_size=(cfg.image_size, cfg.image_size))
        direct, _, _ = synth_pair_corpus(cfg, cfg.n_pairs_train, seed=[11, 3])
        for a, b in zip(loaded, direct):
            np.testing.assert_array_equal(a.left_face, b.left_face)
            np.testing.assert_array_equal(a.relations, b.relations)
