"""Property tests over randomly drawn shapes and damaged files."""

import functools
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from facerel import ops
from facerel.bridge import build_cluster_tree, load_bank, save_bank
from facerel.checkpoint import load_checkpoint, save_checkpoint
from facerel.data import AttrRecord, Box, PairRecord, read_manifest, write_manifest
from facerel.hog import BINS, BLOCK, CELL, EPS, compute_hog, compute_hog_batch
from facerel.kmeans import kmeans
from facerel.net import (
    NetworkSpec,
    conv_spec,
    fc_spec,
    init_trunk_params,
    lrn_spec,
    pool_spec,
    relu_spec,
    trunk_backward,
    trunk_forward,
)
from facerel.ops import conv_forward, maxpool_backward, maxpool_forward

from oracles import (
    assert_forward_matches,
    copying_trunk_backward,
    copying_trunk_forward,
    naive_conv,
    naive_hog,
    stack_maxpool,
)


@st.composite
def conv_cases(draw):
    k = draw(st.integers(1, 4))
    return {
        "n": draw(st.integers(1, 4)),
        "c": draw(st.integers(1, 3)),
        "h": draw(st.integers(k, k + 6)),
        "w": draw(st.integers(k, k + 6)),
        "f": draw(st.integers(1, 4)),
        "k": k,
        "stride": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=40, deadline=None)
@given(case=conv_cases())
def test_conv_forward_batch_is_stack_of_singles_and_naive(case):
    rng = np.random.default_rng(case["seed"])
    x = rng.normal(size=(case["n"], case["c"], case["h"], case["w"]))
    w = rng.normal(size=(case["f"], case["c"], case["k"], case["k"]))
    b = rng.normal(size=case["f"])
    batched, _ = conv_forward(x, w, b, stride=case["stride"])
    singles = np.stack([conv_forward(xi[None], w, b, stride=case["stride"])[0][0] for xi in x])
    naive = np.stack([naive_conv(xi, w, b, stride=case["stride"]) for xi in x])
    np.testing.assert_array_equal(batched, singles)
    assert_forward_matches(batched, naive, exact=False)


@st.composite
def pool_cases(draw):
    """Integer-valued inputs, so that ties are common, with -0.0 and NaN."""
    k, stride = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)),
             draw(st.integers(k, k + 6)), draw(st.integers(k, k + 6)))
    values = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, np.nan])
    x = draw(st.lists(values, min_size=int(np.prod(shape)), max_size=int(np.prod(shape))))
    return np.array(x).reshape(shape), k, stride


@settings(max_examples=300, deadline=None)
@given(pool_cases())
def test_maxpool_forward_is_the_stacked_window_argmax(case):
    x, k, stride = case
    want_out, want_taps, want_idx = stack_maxpool(x, k, stride)
    out, argmax = maxpool_forward(x, k, stride)
    assert out.dtype == want_out.dtype and out.shape == want_out.shape
    assert out.tobytes() == want_out.tobytes()
    assert argmax.taps.dtype == np.uint8
    np.testing.assert_array_equal(argmax.taps, want_taps)
    np.testing.assert_array_equal(ops._pool_sources(argmax.taps, k, stride, x.shape), want_idx)
    single, single_arg = maxpool_forward(x[:1], k, stride)
    assert single[0].tobytes() == want_out[0].tobytes()
    np.testing.assert_array_equal(single_arg.taps, want_taps[:1])


@settings(max_examples=300, deadline=None)
@given(pool_cases(), st.integers(0, 2**32 - 1))
def test_maxpool_backward_is_the_bincount_over_the_stacked_argmax(case, seed):
    x, k, stride = case
    _, _, want_idx = stack_maxpool(x, k, stride)
    out, argmax = maxpool_forward(x, k, stride)
    up = np.random.default_rng(seed).normal(size=out.shape)
    flat = want_idx + (np.arange(len(x)) * x[0].size)[:, None, None, None]
    want = np.bincount(flat.reshape(-1), weights=up.reshape(-1), minlength=x.size)
    assert maxpool_backward(argmax, up).tobytes() == want.reshape(x.shape).tobytes()


@st.composite
def hog_cases(draw):
    # from the smallest image that holds one block to a few cells more,
    # ragged edges included
    side = CELL * BLOCK
    h = draw(st.integers(side, side + 3 * CELL))
    w = draw(st.integers(side, side + 3 * CELL))
    per_image = 10 * h * w * 8  # the scratch compute_hog_batch budgets per image
    return {
        "shape": (draw(st.integers(1, 7)), h, w),
        # one to three images per chunk, or the real budget
        "scratch": draw(st.sampled_from([per_image, 2 * per_image + 1, 3 * per_image,
                                         ops.SCRATCH_BYTES])),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


@settings(max_examples=40, deadline=None)
@given(hog_cases())
def test_hog_batch_is_stack_of_singles_and_naive(case):
    rng = np.random.default_rng(case["seed"])
    imgs = rng.random(case["shape"]) * 10.0 ** rng.integers(-3, 4)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "SCRATCH_BYTES", case["scratch"])
        batched = compute_hog_batch(imgs)
        from_list = compute_hog_batch(list(imgs))
    singles = np.stack([compute_hog(img) for img in imgs])
    naive = np.stack([naive_hog(img, CELL, BLOCK, BINS, EPS) for img in imgs])
    np.testing.assert_array_equal(batched, singles)
    np.testing.assert_array_equal(batched, naive)
    np.testing.assert_array_equal(from_list, batched)


SPATIAL_KINDS = ["conv", "maxpool", "lrn", "relu"]


def _drawn_spec(draw, input_shape, kinds):
    """A feasible trunk: ``kinds`` (of ``SPATIAL_KINDS``) with kernels drawn
    to fit, then fc layers with relus between them, and a drawn bridge."""
    layers, (_, hh, ww) = [], input_shape
    for kind in kinds:
        if kind in ("conv", "maxpool"):
            k = draw(st.integers(1, min(3, hh, ww)))
            s = draw(st.integers(1, 2))
            if kind == "conv":
                layers.append(conv_spec(k, draw(st.integers(1, 3)), s))
            else:
                layers.append(pool_spec(k, s))
            hh, ww = (hh - k) // s + 1, (ww - k) // s + 1
        elif kind == "lrn":
            layers.append(lrn_spec(n=draw(st.integers(1, 3)), k=2.0, alpha=1e-2, beta=0.75))
        else:
            layers.append(relu_spec())
    for i in range(draw(st.integers(1, 3))):
        if i:
            layers.append(relu_spec())
        layers.append(fc_spec(draw(st.integers(1, 5))))
    return NetworkSpec(input_shape, tuple(layers), bridge_dim=draw(st.sampled_from([0, 1, 4])))


@st.composite
def trunk_cases(draw):
    """A feasible stack: conv/pool/lrn/relu layers, then fc layers with relus."""
    shape = draw(st.integers(1, 2)), draw(st.integers(2, 10)), draw(st.integers(2, 10))
    spec = _drawn_spec(draw, shape, draw(st.lists(st.sampled_from(SPATIAL_KINDS), max_size=4)))
    return spec, draw(st.integers(1, 3)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None)
@given(trunk_cases())
def test_trunk_walks_the_plan(case):
    spec, n, seed = case
    rng = np.random.default_rng(seed)
    params = init_trunk_params(spec, rng)
    assert {name: t.shape for name, t in params.items()} == {
        "trunk." + name: shape for name, shape in spec.param_shapes().items()
    }
    # n pairs, interleaved: left faces at rows 0::2, right faces at 1::2
    faces = rng.normal(size=(2 * n,) + spec.input_shape)
    h = rng.normal(size=(2 * n, spec.bridge_dim)) if spec.bridge_dim else None
    up = rng.normal(size=(2 * n,) + spec.plan[-1].out_shape)

    def walk(rows):
        """One trunk walk over ``faces[rows]``: (out, d_image, d_h, grads)."""
        out, cache = trunk_forward(spec, params, faces[rows], None if h is None else h[rows])
        d_image, d_h = trunk_backward(spec, params, cache, up[rows])
        grads = {name: t.grad for name, t in params.items()}
        params.clear_grads()
        return out, d_image, d_h, grads

    def close(got, want):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    out, d_image, d_h, tied = walk(slice(None))
    assert out.shape == up.shape and d_image.shape == faces.shape
    assert (d_h is None) if h is None else (d_h.shape == h.shape)
    for i in range(2 * n):
        one_out, one_d_image, one_d_h, _ = walk(slice(i, i + 1))
        np.testing.assert_array_equal(out[i : i + 1], one_out)
        close(d_image[i : i + 1], one_d_image)
        if h is not None:
            close(d_h[i : i + 1], one_d_h)
    # the Siamese tying: both branches' gradients add into the same tensors
    left, right = walk(slice(0, None, 2))[3], walk(slice(1, None, 2))[3]
    assert tied.keys() == left.keys() == right.keys()
    for name in tied:
        close(tied[name], left[name] + right[name])


#: Layer orderings whose caches alias most easily: a relu reading the
#: caller's image, a relu over a relu's output, and a relu over the output of
#: an lrn, a pool and a conv whose output a pool then reads.
RELU_ORDERINGS = {
    "relu-first": ["relu"],
    "relu-relu": ["relu", "relu"],
    "lrn-relu": ["lrn", "relu"],
    "pool-relu": ["maxpool", "relu"],
    "conv-relu-pool": ["conv", "relu", "maxpool"],
}


@st.composite
def relu_stacks(draw):
    """A feasible stack that holds one of ``RELU_ORDERINGS``, then fc layers
    with relus, and a batch whose values tie and hit 0.0 and -0.0."""
    name = draw(st.sampled_from(sorted(RELU_ORDERINGS)))
    spatial = st.lists(st.sampled_from(SPATIAL_KINDS), max_size=2)
    lead = [] if name == "relu-first" else draw(spatial)
    shape = draw(st.integers(1, 2)), draw(st.integers(3, 10)), draw(st.integers(3, 10))
    spec = _drawn_spec(draw, shape, lead + RELU_ORDERINGS[name] + draw(spatial))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = rng.normal(size=(draw(st.integers(1, 3)),) + shape)
    if draw(st.booleans()):
        images = np.round(images) * rng.choice([1.0, -1.0], size=images.shape)
    return spec, images, rng


@settings(max_examples=60, deadline=None)
@given(relu_stacks())
def test_trunk_matches_the_copying_walk_bitwise(case):
    spec, images, rng = case
    params = init_trunk_params(spec, rng)
    n = len(images)
    h = rng.normal(size=(n, spec.bridge_dim)) if spec.bridge_dim else None
    up = rng.normal(size=(n, spec.feature_dim))
    image_bytes, up_bytes = images.tobytes(), up.tobytes()
    want_out, kept = copying_trunk_forward(spec, params, images, h)
    want_d_image, want_d_h, want_grads = copying_trunk_backward(spec, kept, up)

    out, cache = trunk_forward(spec, params, images, h)
    d_image, d_h = trunk_backward(spec, params, cache, up)
    # the caller's image and upstream are never written
    assert images.tobytes() == image_bytes and up.tobytes() == up_bytes
    for got, want in ((out, want_out), (d_image, want_d_image)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert (d_h is None and want_d_h is None) or d_h.tobytes() == want_d_h.tobytes()
    assert {name: t.grad.tobytes() for name, t in params.items()} == {
        name: g.tobytes() for name, g in want_grads.items()
    }


@st.composite
def kmeans_cases(draw):
    """Points on a coarse grid, so that duplicates and ties are common."""
    n, d = draw(st.integers(1, 30)), draw(st.integers(1, 3))
    coords = draw(st.lists(st.integers(-3, 3), min_size=n * d, max_size=n * d))
    scale = draw(st.sampled_from([1e-3, 1.0, 7.5]))
    points = np.array(coords, dtype=np.float64).reshape(n, d) * scale
    return points, draw(st.integers(1, n)), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=300, deadline=None)
@given(kmeans_cases())
def test_kmeans_assigns_every_point_and_fills_every_cluster(case):
    points, k, seed = case
    res = kmeans(points, k, seed=seed)
    assert res.assignments.shape == (len(points),)
    assert res.assignments.min() >= 0 and res.assignments.max() < k
    if len(np.unique(points, axis=0)) >= k:
        assert np.all(np.bincount(res.assignments, minlength=k) > 0)
    again = kmeans(points, k, seed=seed)
    np.testing.assert_array_equal(again.assignments, res.assignments)
    np.testing.assert_array_equal(again.centroids, res.centroids)


@functools.cache
def valid_files() -> dict:
    """Bytes of a small valid checkpoint (trunk plus head) and bridge bank."""
    rng = np.random.default_rng(0)
    spec = NetworkSpec((1, 6, 6), (conv_spec(3, 2), relu_spec(), pool_spec(2, 2), lrn_spec(),
                                   fc_spec(4)), bridge_dim=3)
    params = init_trunk_params(spec, rng)
    params.merge(init_trunk_params(NetworkSpec((4, 1, 1), (fc_spec(2),)), rng, prefix="attr."))
    corpus = [(rng.uniform(0.1, 0.9, size=(10, 2)), rng.random((16, 16))) for _ in range(8)]
    tree = build_cluster_tree(corpus, 2, 2, 2, seed=0)
    with tempfile.TemporaryDirectory() as d:
        save_checkpoint(Path(d) / "ckpt.bin", spec, params, extra={"step": 3})
        save_bank(Path(d) / "bank.bin", tree)
        return {"checkpoint": (Path(d) / "ckpt.bin").read_bytes(),
                "bank": (Path(d) / "bank.bin").read_bytes()}


@st.composite
def damaged_files(draw):
    """One valid file with one byte substituted, or cut short."""
    kind = draw(st.sampled_from(["checkpoint", "bank"]))
    blob = valid_files()[kind]
    header_end = 16 + struct.unpack("<Q", blob[8:16])[0]
    # half the positions fall in the magic, length and JSON header
    at = draw(st.one_of(st.integers(0, header_end - 1), st.integers(0, len(blob) - 1)))
    if draw(st.booleans()):
        blob = blob[:at] + bytes([draw(st.integers(0, 255))]) + blob[at + 1 :]
    else:
        blob = blob[:at]
    return kind, blob


@settings(max_examples=300, deadline=None)
@given(damaged_files())
def test_damaged_file_loads_or_raises_value_error(tmp_path_factory, case):
    kind, blob = case
    path = tmp_path_factory.getbasetemp() / f"damaged-{kind}.bin"
    path.write_bytes(blob)
    try:
        (load_checkpoint if kind == "checkpoint" else load_bank)(path)
    except ValueError:
        pass


@st.composite
def damaged_array_data(draw):
    """One valid file with one byte of its array data changed."""
    kind = draw(st.sampled_from(["checkpoint", "bank"]))
    blob = valid_files()[kind]
    at = draw(st.integers(16 + struct.unpack("<Q", blob[8:16])[0], len(blob) - 1))
    flipped = blob[at] ^ draw(st.integers(1, 255))
    return kind, blob[:at] + bytes([flipped]) + blob[at + 1 :]


@settings(max_examples=200, deadline=None)
@given(damaged_array_data())
def test_damaged_array_data_always_raises(tmp_path_factory, case):
    kind, blob = case
    path = tmp_path_factory.getbasetemp() / f"damaged-data-{kind}.bin"
    path.write_bytes(blob)
    with pytest.raises(ValueError, match="sha256") as err:
        (load_checkpoint if kind == "checkpoint" else load_bank)(path)
    assert str(path) in str(err.value)


TOKENS = st.text("abcdefghijklmnopqrstuvwxyzABCXYZ0123456789._-/", min_size=1, max_size=12)


@st.composite
def attr_records(draw):
    mask = tuple(draw(st.lists(st.booleans(), min_size=20, max_size=20)))
    # a missing label reads back as 0.0 and stays masked
    labels = tuple(draw(st.sampled_from([0.0, 1.0])) if m else 0.0 for m in mask)
    return AttrRecord(draw(TOKENS), draw(TOKENS), draw(TOKENS), labels, mask)


@st.composite
def pair_records(draw):
    def box():
        extent = st.floats(allow_nan=False, allow_infinity=False)
        return Box(draw(st.integers(-10**6, 10**6)), draw(st.integers(-10**6, 10**6)),
                   draw(extent), draw(extent))

    relations = tuple(draw(st.lists(st.integers(0, 1), min_size=8, max_size=8)))
    return PairRecord(draw(TOKENS), box(), box(), relations)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.tuples(st.just("attributes"), TOKENS, st.lists(attr_records(), max_size=5)),
    st.tuples(st.just("pairs"), TOKENS, st.lists(pair_records(), max_size=5)),
))
def test_manifest_write_read_round_trip(tmp_path_factory, case):
    kind, split, records = case
    path = tmp_path_factory.getbasetemp() / f"roundtrip-{kind}.txt"
    write_manifest(path, kind, split, records)
    # one record a line, after the header line
    numbered = list(enumerate(records, start=2))
    assert read_manifest(path) == (kind, split, numbered)


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.tuples(st.just("attributes"), attr_records()),
                 st.tuples(st.just("pairs"), pair_records())),
       st.integers(0, 2), st.text(" \t+-_.,?01e5\u0663", min_size=1, max_size=2), st.data())
def test_manifest_read_accepts_only_rows_the_writer_writes(tmp_path_factory, case, cut, text,
                                                           data):
    # a written row with ``cut`` characters replaced by ``text`` somewhere
    kind, rec = case
    path = tmp_path_factory.getbasetemp() / f"mutated-{kind}.txt"
    write_manifest(path, kind, "train", [rec])
    header, row = path.read_text(encoding="utf-8").splitlines()
    at = data.draw(st.integers(0, len(row)))
    row = row[:at] + text + row[at + cut :]
    path.write_text(f"{header}\n{row}\n", encoding="utf-8")
    try:
        records = read_manifest(path)[2]
    except ValueError as e:
        assert str(e).startswith(f"{path}:2: ")
        return
    [(_, back)] = records
    write_manifest(path, kind, "train", [back])
    assert path.read_text(encoding="utf-8").splitlines()[1] == row


def spoil_one(draw, values: list, bad) -> tuple:
    """``values`` with, a quarter of the time, one entry replaced by a draw from ``bad``."""
    if values and draw(st.integers(0, 3)) == 0:
        values[draw(st.integers(0, len(values) - 1))] = draw(bad)
    return tuple(values)


def fields(draw, count: int) -> tuple:
    """``count`` path-like fields; a quarter of the time one may be empty,
    hold whitespace or start with "#"."""
    return spoil_one(draw, [draw(TOKENS) for _ in range(count)], st.text("ab.#/ \t", max_size=6))


def labels(draw, count: int) -> tuple:
    """About ``count`` labels (one more or one fewer a third of the time),
    each 0 or 1 but for, a quarter of the time, one 0.5 or 2."""
    n = count + draw(st.sampled_from([-1, 0, 0, 0, 0, 1]))
    return spoil_one(draw, draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)),
                     st.sampled_from([0.5, 2]))


@st.composite
def any_attr_record(draw):
    mask = tuple(draw(st.lists(st.booleans(), min_size=20, max_size=20)))
    return AttrRecord(*fields(draw, 3), labels(draw, 20), mask)


@st.composite
def any_pair_record(draw):
    corners = draw(st.lists(st.integers(-10**6, 10**6), min_size=4, max_size=4))
    x0, y0, x1, y1 = spoil_one(draw, corners, st.one_of(st.floats(), st.integers(-9, 9).map(float)))
    extent = st.floats(allow_nan=False, allow_infinity=False)
    return PairRecord(*fields(draw, 1), Box(x0, y0, draw(extent), draw(extent)),
                      Box(x1, y1, draw(extent), draw(extent)), labels(draw, 8))


def reads_back(rec) -> bool:
    """Whether ``rec`` fits the manifest format: every field one token and
    the image path not a comment, int box corners, and the right count of
    labels, each present one 0 or 1."""
    texts = [rec.image_path]
    if isinstance(rec, AttrRecord):
        texts += [rec.landmark_path, rec.dataset_id]
        present = [l for l, m in zip(rec.labels, rec.mask) if m]
        shape_ok = len(rec.labels) == len(rec.mask) == 20
    else:
        present = rec.relations
        corners = [rec.left_box.x, rec.left_box.y, rec.right_box.x, rec.right_box.y]
        shape_ok = len(present) == 8 and all(type(v) is int for v in corners)
    return (shape_ok and all(t.split() == [t] for t in texts)
            and not rec.image_path.startswith("#") and all(l in (0, 1) for l in present))


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.tuples(st.just("attributes"), any_attr_record()),
                 st.tuples(st.just("pairs"), any_pair_record())))
def test_manifest_write_refuses_or_reads_back_equal(tmp_path_factory, case):
    kind, rec = case
    path = tmp_path_factory.getbasetemp() / f"any-{kind}.txt"
    path.unlink(missing_ok=True)
    if not reads_back(rec):
        with pytest.raises(ValueError, match="^record 0 cannot be written: "):
            write_manifest(path, kind, "train", [rec])
        assert not path.exists()
        return
    write_manifest(path, kind, "train", [rec])
    _, _, [(line, back)] = read_manifest(path)
    assert line == 2
    if kind == "pairs":
        assert back == rec
    else:
        assert (back.image_path, back.landmark_path, back.dataset_id, back.mask) == (
            rec.image_path, rec.landmark_path, rec.dataset_id, rec.mask)
        assert [l for l, m in zip(back.labels, back.mask) if m] == [
            l for l, m in zip(rec.labels, rec.mask) if m]
