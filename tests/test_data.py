"""Manifests, batching, spatial cues, and the crop/resize path."""

import re
from pathlib import Path

import numpy as np
import pytest

from facerel.data import (
    ATTRIBUTE_GROUPS,
    ATTRIBUTE_NAMES,
    RELATION_NAMES,
    AttrRecord,
    Box,
    PairRecord,
    PairSample,
    batch_iter,
    load_manifest,
    read_manifest,
    resize_nearest,
    spatial_cues,
    write_manifest,
)


def make_pair(left_box, right_box, dims=(160, 64)):
    return PairSample(
        left_face=np.zeros((4, 4)),
        right_face=np.zeros((4, 4)),
        left_box=left_box,
        right_box=right_box,
        image_dims=dims,
        relations=np.zeros(8),
    )


class TestVocabularies:
    def test_twenty_attributes_in_four_groups(self):
        assert len(ATTRIBUTE_NAMES) == 20
        assert [len(ATTRIBUTE_GROUPS[g]) for g in ("gender", "pose", "expression", "age")] == [
            1, 5, 9, 5,
        ]

    def test_eight_relation_traits(self):
        assert RELATION_NAMES == (
            "dominant", "competitive", "trusting", "warm",
            "friendly", "attached", "demonstrative", "assured",
        )


class TestManifests:
    def _attr_records(self):
        labels = tuple(float(i % 2) for i in range(20))
        mask = tuple(i < 3 for i in range(20))
        return [AttrRecord("img0.npy", "lm0.npy", "src-a", labels, mask)]

    def test_empty_manifest_round_trip(self, tmp_path):
        p = tmp_path / "empty.txt"
        write_manifest(p, "attributes", "train", [])
        kind, split, records = read_manifest(p)
        assert (kind, split, records) == ("attributes", "train", [])

    def test_partial_labels_become_mask(self, tmp_path):
        p = tmp_path / "m.txt"
        write_manifest(p, "attributes", "train", self._attr_records())
        _, _, [(line, rec)] = read_manifest(p)
        assert line == 2 and sum(rec.mask) == 3
        # missing labels are never defaulted into the present set
        assert rec.mask[3] is False

    def test_attr_round_trip_exact(self, tmp_path):
        p = tmp_path / "m.txt"
        recs = self._attr_records()
        write_manifest(p, "attributes", "test", recs)
        _, split, [(_, loaded)] = read_manifest(p)
        assert split == "test"
        assert loaded.image_path == recs[0].image_path
        assert loaded.mask == recs[0].mask
        assert all(
            l == r for l, r, m in zip(loaded.labels, recs[0].labels, recs[0].mask) if m
        )

    def test_pair_round_trip_exact(self, tmp_path):
        p = tmp_path / "pairs.txt"
        recs = [
            PairRecord("scene.npy", Box(3, 4, 0.25, 0.75), Box(90, 8, 0.3125, 0.625),
                       (0, 1, 1, 0, 1, 0, 0, 1))
        ]
        write_manifest(p, "pairs", "train", recs)
        _, _, loaded = read_manifest(p)
        assert loaded == [(2, recs[0])]

    def test_pair_round_trip_with_numpy_scalar_boxes(self, tmp_path):
        p = tmp_path / "pairs.txt"
        rec = PairRecord("scene.npy", Box(np.int64(3), 4, np.float64(0.3), np.float64(2 / 3)),
                         Box(90, 8, 0.3125, 0.625), (0, 1, 1, 0, 1, 0, 0, 1))
        write_manifest(p, "pairs", "train", [rec])
        _, _, [(_, loaded)] = read_manifest(p)
        assert loaded == rec

    @pytest.mark.parametrize("kind, split, record, where, reason", [
        ("pairs", "my split", None, "split 'my split'", "unsupported manifest header"),
        ("pairs", "", None, "split ''", "unsupported manifest header"),
        ("pairs", "train", PairRecord("a b.npy", Box(0, 0, 0.1, 0.1), Box(9, 0, 0.1, 0.1),
                                      (0,) * 8), "record 1", "expected 11 fields, got 12"),
        ("pairs", "train", PairRecord("#a.npy", Box(0, 0, 0.1, 0.1), Box(9, 0, 0.1, 0.1),
                                      (0,) * 8), "record 1", "does not read back as itself"),
        ("attributes", "train", AttrRecord("img.npy", "lm\t0.npy", "src-a", (0.0,) * 20,
                                           (True,) * 20), "record 1", "expected 23 fields, got 24"),
        ("attributes", "train", AttrRecord("img.npy", "lm.npy", "", (0.0,) * 20,
                                           (True,) * 20), "record 1", "expected 23 fields, got 22"),
        ("pairs", "train", PairRecord("scene.npy", Box(0, 0, 0.1, 0.1), Box(9, 0, 0.1, 0.1),
                                      (2,) + (0,) * 7), "record 1",
         "label must be 0 or 1, got '2'"),
        ("pairs", "train", PairRecord("scene.npy", Box(3.0, 4, 0.1, 0.1), Box(9, 0, 0.1, 0.1),
                                      (0,) * 8), "record 1",
         "box field x must be an int, got '3.0' in '3.0,4,0.1,0.1'"),
        ("attributes", "train", AttrRecord("img.npy", "lm.npy", "src-a", (0.5,) + (0.0,) * 19,
                                           (True,) * 20), "record 1",
         "label must be 0, 1 or ?, got '0.5'"),
        ("attributes", "train", AttrRecord("img.npy", "lm.npy", "src-a", (0.0,) * 19,
                                           (True,) * 20), "record 1", "longer"),
        ("pairs", "train", PairRecord(Path("scene.npy"), Box(0, 0, 0.1, 0.1), Box(9, 0, 0.1, 0.1),
                                      (0,) * 8), "record 1", "expected str instance"),
        ("pairs", "train", PairRecord("scene.npy", Box(0, 0, 0.1, 0.1), Box(9, 0, 0.1, 0.1),
                                      (None,) * 8), "record 1", "NoneType"),
    ], ids=["split-space", "split-empty", "path-space", "path-comment", "landmark-tab",
            "dataset-empty", "relation-two", "corner-float", "label-half", "mask-longer",
            "path-object", "relation-none"])
    def test_write_refuses_what_it_cannot_read_back(self, tmp_path, kind, split, record, where,
                                                    reason):
        good = self._attr_records()[0] if kind == "attributes" else PairRecord(
            "scene.npy", Box(0, 0, 0.1, 0.1), Box(9, 0, 0.1, 0.1), (0,) * 8)
        p = tmp_path / "m.txt"
        with pytest.raises(ValueError, match=f"^{re.escape(where)} cannot be written: .*"
                                             f"{re.escape(reason)}"):
            write_manifest(p, kind, split, [good] + ([record] if record else []))
        assert not p.exists()

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("#facerel-manifest v1 attributes train\nonly three fields here\n")
        with pytest.raises(ValueError, match="bad.txt:2"):
            read_manifest(p)

    def test_label_outside_01_rejected(self, tmp_path):
        p = tmp_path / "bad.txt"
        row = "img.npy lm.npy src " + " ".join(["2"] + ["0"] * 19)
        p.write_text("#facerel-manifest v1 attributes train\n" + row + "\n")
        with pytest.raises(ValueError, match="0, 1 or"):
            read_manifest(p)

    def test_missing_header_rejected(self, tmp_path):
        p = tmp_path / "no_header.txt"
        p.write_text("img.npy lm.npy src " + "0 " * 20 + "\n")
        with pytest.raises(ValueError, match="header"):
            read_manifest(p)

    def test_load_resolves_and_validates(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.random((20, 40))
        np.save(tmp_path / "scene.npy", img)
        rec = PairRecord("scene.npy", Box(2, 2, 0.25, 0.5), Box(25, 4, 0.25, 0.5),
                         (0,) * 8)
        p = tmp_path / "pairs.txt"
        write_manifest(p, "pairs", "train", [rec])
        kind, split, pairs = load_manifest(p, face_size=(8, 8))
        assert kind == "pairs" and len(pairs) == 1
        assert pairs[0].left_face.shape == (8, 8)
        assert pairs[0].image_dims == (40, 20)

    def test_load_orders_left_by_x(self, tmp_path):
        img = np.zeros((20, 40))
        np.save(tmp_path / "scene.npy", img)
        rec = PairRecord("scene.npy", Box(25, 4, 0.25, 0.5), Box(2, 2, 0.25, 0.5),
                         (0,) * 8)
        p = tmp_path / "pairs.txt"
        write_manifest(p, "pairs", "train", [rec])
        _, _, pairs = load_manifest(p, face_size=(8, 8))
        assert pairs[0].left_box.x == 2

    def test_load_rejects_box_outside_image(self, tmp_path):
        img = np.zeros((20, 40))
        np.save(tmp_path / "scene.npy", img)
        rec = PairRecord("scene.npy", Box(35, 2, 0.25, 0.5), Box(2, 2, 0.25, 0.5),
                         (0,) * 8)
        p = tmp_path / "pairs.txt"
        write_manifest(p, "pairs", "train", [rec])
        with pytest.raises(ValueError, match="outside"):
            load_manifest(p, face_size=(8, 8))


def _attr_manifest(tmp_path, second_image, landmarks=None):
    """Two attribute rows after a comment line; the second row is on line 4."""
    lm = np.full((10, 2), 0.5) if landmarks is None else landmarks
    records = []
    for i, img in enumerate((np.full((8, 8), 0.5), second_image)):
        np.save(tmp_path / f"img{i}.npy", img)
        np.save(tmp_path / f"lm{i}.npy", lm if i else np.full((10, 2), 0.5))
        records.append(AttrRecord(f"img{i}.npy", f"lm{i}.npy", "src", (0.0,) * 20, (True,) * 20))
    p = tmp_path / "attrs.txt"
    write_manifest(p, "attributes", "train", records)
    head, rest = p.read_text().split("\n", 1)
    p.write_text(f"{head}\n# a comment line\n{rest}")
    return p, 4


def _pair_manifest(tmp_path, scene):
    """One pair row after a comment line, on line 3."""
    np.save(tmp_path / "scene.npy", scene)
    rec = PairRecord("scene.npy", Box(2, 2, 0.25, 0.5), Box(25, 4, 0.25, 0.5), (0,) * 8)
    p = tmp_path / "pairs.txt"
    write_manifest(p, "pairs", "train", [rec])
    head, rest = p.read_text().split("\n", 1)
    p.write_text(f"{head}\n# a comment line\n{rest}")
    return p, 3


@pytest.mark.parametrize(
    "make, image, match",
    [
        (_attr_manifest, np.full((1, 8, 8), 0.5), r"has shape \(1, 8, 8\), not \(H, W\)"),
        (_attr_manifest, np.full((8, 8), np.nan), "non-finite pixels"),
        (_attr_manifest, np.full((8, 8), 255.0), r"outside \[0, 1\]"),
        (_attr_manifest, np.full((6, 6), 0.5), "is 6x6, not the face size 8x8"),
        (_pair_manifest, np.full((20, 40), np.nan), "non-finite pixels"),
        (_pair_manifest, np.full((3, 20, 40), 0.5), r"has shape \(3, 20, 40\)"),
        (_pair_manifest, np.full((20, 40), "a"),
         "referenced file 'scene.npy' holds dtype <U1, not bool, int, uint or float"),
        (_pair_manifest, np.full((20, 40), 0.5 + 0j), "'scene.npy' holds dtype complex128"),
    ],
    ids=["attr-3d", "attr-nan", "attr-0-255", "attr-geometry", "pair-nan", "pair-3d",
         "pair-str", "pair-complex"],
)
def test_load_manifest_rejects_malformed_image(tmp_path, make, image, match):
    p, line = make(tmp_path, image)
    with pytest.raises(ValueError, match=match) as err:
        load_manifest(p, face_size=(8, 8))
    assert f"{p}:{line}:" in str(err.value)


def test_load_manifest_checks_attribute_images_against_the_face_size(tmp_path):
    p, _ = _attr_manifest(tmp_path, np.full((8, 8), 0.5))
    _, _, samples = load_manifest(p, face_size=(8, 8))
    assert [s.image.shape for s in samples] == [(8, 8), (8, 8)]
    # the first row, on line 3, already misses a face size its images share
    with pytest.raises(ValueError, match=f"{p}:3: image 'img0.npy' is 8x8, not the face size 8x6"):
        load_manifest(p, face_size=(8, 6))


def test_load_manifest_names_malformed_landmarks(tmp_path):
    p, line = _attr_manifest(tmp_path, np.full((8, 8), 0.5), landmarks=np.zeros((9, 2)))
    with pytest.raises(ValueError, match=f"{p}:{line}: 'lm1.npy': landmarks must have shape"):
        load_manifest(p, face_size=(8, 8))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_load_manifest_rejects_non_finite_landmarks(tmp_path, bad):
    lm = np.full((10, 2), 0.5)
    lm[2, 0] = bad
    p, line = _attr_manifest(tmp_path, np.full((8, 8), 0.5), landmarks=lm)
    with pytest.raises(ValueError, match=f"{p}:{line}: 'lm1.npy': landmark coordinates must be finite"):
        load_manifest(p, face_size=(8, 8))


def _spoil(path, how):
    """Replace the array file at ``path`` with one ``load_manifest`` refuses,
    and return how the error describes it."""
    if how == "directory":
        path.unlink()
        path.mkdir()
    elif how == "truncated":
        path.write_bytes(path.read_bytes()[:-8])
    elif how == "complex":
        np.save(path, np.load(path) + 0j)
        return "holds dtype complex128"
    elif how == "npz":
        with open(path, "wb") as f:
            np.savez(f, a=np.zeros(2))
        return "is an .npz archive, not one array"
    else:
        path.write_bytes({"empty": b"", "not-npy": b"not an array\n"}[how])
    return "cannot be read"


@pytest.mark.parametrize("how", ["empty", "directory", "truncated", "not-npy", "complex", "npz"])
@pytest.mark.parametrize("column", ["img1.npy", "lm1.npy"])
def test_load_manifest_names_an_unreadable_array(tmp_path, column, how):
    p, line = _attr_manifest(tmp_path, np.full((8, 8), 0.5))
    reason = _spoil(tmp_path / column, how)
    with pytest.raises(ValueError, match=f"{p}:{line}: referenced file '{column}' {reason}"):
        load_manifest(p, face_size=(8, 8))


@pytest.mark.parametrize("extent", ["nan", "inf"])
def test_read_manifest_rejects_nonfinite_box(tmp_path, extent):
    p = tmp_path / "pairs.txt"
    p.write_text("#facerel-manifest v1 pairs train\n"
                 f"scene.npy 2,2,{extent},0.5 25,4,0.25,0.5 " + "0 " * 8 + "\n")
    with pytest.raises(ValueError, match=f"{p}:2: box extent must be finite"):
        read_manifest(p)


def _pair_row(left, right="25,4,0.25,0.5"):
    """A pairs manifest whose one row has the boxes ``left`` and ``right``."""
    return f"#facerel-manifest v1 pairs train\nscene.npy {left} {right}" + " 0" * 8


@pytest.mark.parametrize("text, line, match", [
    (_pair_row("3.0,4,0.1,0.1"),
     2, "box field x must be an int, got '3.0' in '3.0,4,0.1,0.1'"),
    (_pair_row("2,2,0.25,0.5", "25,4,wide,0.5"),
     2, "box field w must be a number, got 'wide' in '25,4,wide,0.5'"),
    (b"\xff\xfe#facerel-manifest v1 pairs train\n", 1, "not UTF-8"),
    (b"#facerel-manifest v1 pairs train\n# a comment\nscene\xe9.npy", 3, "not UTF-8"),
    # int() and float() read these, but the writer never writes them
    (_pair_row("3_0,+4,0.2_5,1e-1"), 2, "box field x must be written '30', got '3_0'"),
    (_pair_row("3,+4,0.25,1e-1"), 2, "box field y must be written '4', got '+4'"),
    (_pair_row("3,4,0.25,1e-1"), 2, "box field h must be written '0.1', got '1e-1'"),
    (_pair_row("\u0663,4,0.250,0.1"), 2, "box field x must be written '3', got '\u0663'"),
    (_pair_row("3,4,0.250,0.1"), 2, "box field w must be written '0.25', got '0.250'"),
    (_pair_row("3,4,0.25,0.1") + " ", 2, "fields must be separated by one space"),
    (_pair_row("3,4,0.25,0.1").replace(" 25,4", "\t25,4"), 2,
     "fields must be separated by one space"),
    ("#facerel-manifest  v1 pairs train\n", 1, "unsupported manifest header"),
], ids=["corner-float", "extent-word", "utf16-bom", "latin1-path", "corner-underscore",
        "corner-plus", "extent-exponent", "corner-arabic-indic", "extent-trailing-zero",
        "trailing-space", "tab-separator", "header-double-space"])
def test_read_manifest_names_the_file_and_line(tmp_path, text, line, match):
    p = tmp_path / "pairs.txt"
    p.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    with pytest.raises(ValueError, match=f"^{re.escape(str(p))}:{line}: .*{re.escape(match)}"):
        read_manifest(p)


class TestBatchIter:
    def test_single_big_batch(self):
        data = list(range(7))
        batches = list(batch_iter(data, 10, seed=0, epoch=0))
        assert len(batches) == 1 and sorted(batches[0]) == data

    def test_same_seed_epoch_identical(self):
        data = list(range(23))
        a = [x for b in batch_iter(data, 5, seed=3, epoch=2) for x in b]
        b = [x for b in batch_iter(data, 5, seed=3, epoch=2) for x in b]
        assert a == b

    def test_epoch_changes_order(self):
        data = list(range(23))
        a = [x for b in batch_iter(data, 5, seed=3, epoch=0) for x in b]
        b = [x for b in batch_iter(data, 5, seed=3, epoch=1) for x in b]
        assert a != b

    def test_epoch_covers_exactly_once(self):
        data = list(range(23))
        seen = [x for b in batch_iter(data, 5, seed=1, epoch=4) for x in b]
        assert sorted(seen) == data

    def test_short_final_batch_emitted(self):
        batches = list(batch_iter(list(range(10)), 4, seed=0, epoch=0))
        assert [len(b) for b in batches] == [4, 4, 2]


class TestSpatialCues:
    def test_identical_boxes(self):
        box = Box(10, 10, 0.3, 0.5)
        x = spatial_cues(make_pair(box, box))
        assert x.shape == (11,)
        assert x[8] == 0.0 and x[9] == 0.0 and x[10] == 1.0

    def test_relative_x_formula(self):
        # normalized corners 0.1 and 0.5, left width 0.2 -> -2.0
        left = Box(16, 0, 0.2, 0.5)
        right = Box(80, 0, 0.2, 0.5)
        x = spatial_cues(make_pair(left, right, dims=(160, 64)))
        assert np.isclose(x[8], (0.1 - 0.5) / 0.2)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dims = (int(rng.integers(50, 300)), int(rng.integers(50, 300)))
            lb = Box(int(rng.integers(0, 20)), int(rng.integers(0, 20)),
                     float(rng.uniform(0.1, 0.4)), float(rng.uniform(0.1, 0.4)))
            rb = Box(int(rng.integers(0, 20)), int(rng.integers(0, 20)),
                     float(rng.uniform(0.1, 0.4)), float(rng.uniform(0.1, 0.4)))
            x = spatial_cues(make_pair(lb, rb, dims=dims))
            xl, yl = lb.x / dims[0], lb.y / dims[1]
            xr, yr = rb.x / dims[0], rb.y / dims[1]
            expected = np.array([xl, yl, lb.w, lb.h, xr, yr, rb.w, rb.h,
                                 (xl - xr) / lb.w, (yl - yr) / lb.h, lb.w / rb.w])
            assert np.max(np.abs(x - expected)) < 1e-12

    def test_swap_inverts_ratio_and_negates_offsets(self):
        lb = Box(10, 12, 0.25, 0.4)
        rb = Box(60, 30, 0.2, 0.3)
        x = spatial_cues(make_pair(lb, rb))
        swapped = spatial_cues(make_pair(rb, lb))
        assert np.isclose(swapped[10], 1.0 / x[10])
        # relative offsets negate up to the change of normalizing box
        assert np.isclose(swapped[8], -x[8] * lb.w / rb.w)
        assert np.isclose(swapped[9], -x[9] * lb.h / rb.h)

    def test_zero_area_box_rejected(self):
        with pytest.raises(ValueError, match="zero-area"):
            spatial_cues(make_pair(Box(0, 0, 0.0, 0.5), Box(0, 0, 0.2, 0.5)))


class TestResize:
    def test_identity_when_same_size(self):
        img = np.arange(12.0).reshape(3, 4)
        np.testing.assert_array_equal(resize_nearest(img, 3, 4), img)

    def test_upscale_repeats_pixels(self):
        img = np.array([[0.0, 1.0]])
        out = resize_nearest(img, 1, 4)
        np.testing.assert_array_equal(out, [[0.0, 0.0, 1.0, 1.0]])

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        img = rng.random((17, 23))
        np.testing.assert_array_equal(resize_nearest(img, 9, 9), resize_nearest(img, 9, 9))
