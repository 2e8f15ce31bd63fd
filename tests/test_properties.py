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
from facerel.hog import HogConfig, compute_hog, compute_hog_batch
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
from facerel.ops import conv_forward

from oracles import naive_conv, naive_hog


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
@given(conv_cases())
def test_conv_forward_batch_is_stack_of_singles_and_naive(case):
    rng = np.random.default_rng(case["seed"])
    x = rng.normal(size=(case["n"], case["c"], case["h"], case["w"]))
    w = rng.normal(size=(case["f"], case["c"], case["k"], case["k"]))
    b = rng.normal(size=case["f"])
    batched, _ = conv_forward(x, w, b, stride=case["stride"])
    singles = np.stack([conv_forward(xi, w, b, stride=case["stride"])[0] for xi in x])
    naive = np.stack([naive_conv(xi, w, b, stride=case["stride"]) for xi in x])
    np.testing.assert_array_equal(batched, singles)
    np.testing.assert_array_equal(batched, naive)


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


@st.composite
def trunk_cases(draw):
    """A feasible stack: conv/pool/lrn/relu layers, then fc layers with relus."""
    c, h, w = draw(st.integers(1, 2)), draw(st.integers(2, 10)), draw(st.integers(2, 10))
    layers, ch, hh, ww = [], c, h, w
    for kind in draw(st.lists(st.sampled_from(["conv", "maxpool", "lrn", "relu"]), max_size=4)):
        if kind in ("conv", "maxpool"):
            k = draw(st.integers(1, min(3, hh, ww)))
            s = draw(st.integers(1, 2))
            if kind == "conv":
                ch = draw(st.integers(1, 3))
                layers.append(conv_spec(k, ch, s))
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
    spec = NetworkSpec((c, h, w), tuple(layers), bridge_dim=draw(st.sampled_from([0, 1, 4])))
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
