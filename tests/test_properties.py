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
from facerel.hog import HogConfig, compute_hog, compute_hog_batch
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
    copying_trunk_walk,
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


@pytest.mark.parametrize("exact", [True, False])
@settings(max_examples=40, deadline=None)
@given(case=conv_cases())
def test_conv_forward_batch_is_stack_of_singles_and_naive(exact, case):
    rng = np.random.default_rng(case["seed"])
    x = rng.normal(size=(case["n"], case["c"], case["h"], case["w"]))
    w = rng.normal(size=(case["f"], case["c"], case["k"], case["k"]))
    b = rng.normal(size=case["f"])
    batched, _ = conv_forward(x, w, b, stride=case["stride"], exact=exact)
    singles = np.stack([conv_forward(xi[None], w, b, stride=case["stride"], exact=exact)[0][0]
                        for xi in x])
    naive = np.stack([naive_conv(xi, w, b, stride=case["stride"]) for xi in x])
    np.testing.assert_array_equal(batched, singles)
    assert_forward_matches(batched, naive, exact)


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
    cfg = HogConfig(
        cell=draw(st.integers(1, 6)),
        block=draw(st.integers(1, 3)),
        bins=draw(st.integers(1, 12)),
        eps=draw(st.sampled_from([1e-8, 1e-5, 0.3])),
    )
    side = max(2, cfg.cell * cfg.block)
    h = draw(st.integers(side, side + 12))
    w = draw(st.integers(side, side + 12))
    per_image = 10 * h * w * 8  # the scratch compute_hog_batch budgets per image
    return {
        "cfg": cfg,
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
    cfg = case["cfg"]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ops, "SCRATCH_BYTES", case["scratch"])
        batched = compute_hog_batch(imgs, cfg)
        from_list = compute_hog_batch(list(imgs), cfg)
    singles = np.stack([compute_hog(img, cfg) for img in imgs])
    naive = np.stack([naive_hog(img, cfg.cell, cfg.block, cfg.bins, cfg.eps) for img in imgs])
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
    images = rng.normal(size=(n,) + spec.input_shape)
    h = rng.normal(size=(n, spec.bridge_dim)) if spec.bridge_dim else None
    batched, cache = trunk_forward(spec, params, images, h)
    assert batched.shape == (n,) + spec.trace()[-1]
    singles = [trunk_forward(spec, params, images[i], None if h is None else h[i])
               for i in range(n)]
    np.testing.assert_array_equal(batched, np.stack([out for out, _ in singles]))

    d_image, d_h = trunk_backward(spec, params, cache, rng.normal(size=batched.shape))
    assert d_image.shape == images.shape
    assert (d_h is None) if h is None else (d_h.shape == h.shape)
    out, single_cache = singles[0]
    d_image, d_h = trunk_backward(spec, params, single_cache, rng.normal(size=out.shape))
    assert d_image.shape == spec.input_shape
    assert (d_h is None) if h is None else (d_h.shape == (spec.bridge_dim,))


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
    image_bytes = images.tobytes()
    want_out, want_d_image, want_d_h, want_grads = copying_trunk_walk(spec, params, images, h, up)

    out, cache = trunk_forward(spec, params, images, h)
    d_image, d_h = trunk_backward(spec, params, cache, up)
    assert images.tobytes() == image_bytes  # the caller's image is never written
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
    tree = build_cluster_tree(corpus, 2, 2, 2, seed=0, hog_cfg=HogConfig(cell=8))
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
    assert read_manifest(path) == (kind, split, records)
